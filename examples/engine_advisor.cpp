// Engine advisor: the paper's stated goal made executable — "assist
// practitioners identifying the implementations that best serve their CNN
// computation needs in different scenarios" (§I).
//
// Given a convolution configuration, evaluates all seven implementations
// on the simulated K40c and prints runtime, peak memory and shape
// support, then issues the paper's §IV/§V style recommendations.
//
// Run:  ./engine_advisor [batch input channels filters kernel stride]
//                        [--measure]
//       ./engine_advisor 128 64 32 96 5 1
//       ./engine_advisor 8 32 16 32 3 1 --measure
//
// --measure additionally times every eligible real CPU engine on all
// three passes and prints the model-predicted winner next to the
// empirically measured one — the paper's crossover story, checkable in
// one command. (Measuring runs the real convolutions: pick a config
// sized for your machine.)
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/recommend.hpp"
#include "cli_args.hpp"
#include "obs/table.hpp"
#include "tune/autotuner.hpp"

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::fmt;
using obs::fmt_percent;

namespace {

/// Times all engines on every pass and prints them against the model's
/// predicted ranking.
void measure_and_compare(const ConvConfig& cfg, const Recommendation& rec) {
  auto& tuner = tune::Autotuner::instance();
  const int trials_before = tuner.set_trials_for_testing(1);

  constexpr tune::Pass kPasses[] = {tune::Pass::kForward,
                                    tune::Pass::kBackwardData,
                                    tune::Pass::kBackwardFilter};
  std::vector<std::vector<tune::EngineTiming>> timings;
  timings.reserve(3);
  for (const auto pass : kPasses) {
    timings.push_back(tuner.measure_all(cfg, pass));
  }
  tuner.set_trials_for_testing(trials_before);

  Table table("measured engine times on this machine (ms, best of 2)");
  table.header({"engine", "forward", "backward-data", "backward-filter"});
  for (std::size_t e = 0; e < timings[0].size(); ++e) {
    std::vector<std::string> row{std::string(timings[0][e].engine_name)};
    for (std::size_t p = 0; p < 3; ++p) {
      const auto& t = timings[p][e];
      row.push_back(t.eligible ? fmt(t.ms, 2) : "n/s");
    }
    table.row(row);
  }
  table.print(std::cout);

  // The model predicts one training iteration (all passes together); its
  // winner is compared against each pass's measured winner.
  std::string predicted = "(none)";
  if (rec.fastest.has_value()) {
    predicted = std::string(conv::to_string(
        frameworks::framework(*rec.fastest).strategy()));
  }
  std::cout << "\nmodel-predicted fastest strategy: " << predicted << "\n";
  for (std::size_t p = 0; p < 3; ++p) {
    const tune::EngineTiming* best = nullptr;
    for (const auto& t : timings[p]) {
      if (t.eligible && (best == nullptr || t.ms < best->ms)) best = &t;
    }
    std::cout << "measured fastest, " << tune::to_string(kPasses[p]) << ": "
              << (best != nullptr ? std::string(best->engine_name)
                                  : std::string("(none)"));
    if (best != nullptr) std::cout << " (" << fmt(best->ms, 2) << " ms)";
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  ConvConfig cfg{.batch = 64, .input = 128, .channels = 3, .filters = 64,
                 .kernel = 11, .stride = 1};
  bool measure = false;
  if (argc > 1 && std::string_view(argv[argc - 1]) == "--measure") {
    measure = true;
    --argc;
  }
  if (argc == 7) {
    // Cap each dimension at 2^20: large enough for any real CNN layer,
    // small enough that a typo cannot request a petabyte tensor.
    constexpr std::size_t kMax = std::size_t{1} << 20;
    if (!examples::parse_positive(argv[1], "batch", cfg.batch, kMax) ||
        !examples::parse_positive(argv[2], "input", cfg.input, kMax) ||
        !examples::parse_positive(argv[3], "channels", cfg.channels, kMax) ||
        !examples::parse_positive(argv[4], "filters", cfg.filters, kMax) ||
        !examples::parse_positive(argv[5], "kernel", cfg.kernel, kMax) ||
        !examples::parse_positive(argv[6], "stride", cfg.stride, kMax)) {
      return 2;
    }
    if (cfg.input + 2 * cfg.pad < cfg.kernel) {
      std::cerr << "kernel " << cfg.kernel << " exceeds the padded input "
                << cfg.input << "\n";
      return 2;
    }
  } else if (argc != 1) {
    std::cerr << "usage: engine_advisor [batch input channels filters "
                 "kernel stride] [--measure]\n";
    return 2;
  }

  std::cout << "Evaluating convolution " << cfg << " with " << cfg.channels
            << " channels on a simulated Tesla K40c\n";

  const Recommendation rec = recommend(cfg);

  Table table("implementation comparison (one training iteration)");
  table.header({"implementation", "strategy", "runtime (ms)", "peak MB",
                "transfer", "note"});
  for (const auto& r : rec.results) {
    const auto& fw = frameworks::framework(r.framework);
    if (!r.supported) {
      table.row({std::string(fw.name()),
                 std::string(conv::to_string(fw.strategy())), "n/s", "-",
                 "-", r.unsupported_reason});
      continue;
    }
    table.row({std::string(fw.name()),
               std::string(conv::to_string(fw.strategy())),
               fmt(r.runtime_ms, 1), fmt(r.peak_mb, 0),
               fmt_percent(r.transfer_share),
               r.out_of_memory ? "exceeds device memory!" : ""});
  }
  table.print(std::cout);

  if (!rec.fastest.has_value()) {
    std::cout << "\nNo implementation fits this configuration on the "
                 "device.\n";
    if (measure) measure_and_compare(cfg, rec);
    return 0;
  }
  const auto describe = [&](frameworks::FrameworkId id) {
    for (const auto& r : rec.results) {
      if (r.framework == id) {
        return std::string(frameworks::to_string(id)) + " (" +
               fmt(r.runtime_ms, 1) + " ms, " + fmt(r.peak_mb, 0) + " MB)";
      }
    }
    return std::string(frameworks::to_string(id));
  };
  std::cout << "\nRecommendations (paper §IV-B/§V-B summaries):\n"
            << "  fastest:            " << describe(*rec.fastest) << "\n"
            << "  most memory-lean:   " << describe(*rec.most_memory_lean)
            << "\n";
  if (rec.balanced.has_value()) {
    std::cout << "  balanced choice:    " << describe(*rec.balanced)
              << "\n";
  }
  if (measure) {
    std::cout << "\n";
    measure_and_compare(cfg, rec);
  }
  return 0;
}
