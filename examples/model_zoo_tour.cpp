// Tour of the model zoo: prints the architecture and parameter counts of
// the CNNs the paper's introduction cites (AlexNet >60M parameters,
// VGG >144M (VGG-19), GoogLeNet ~6.8M), then the simulated per-layer-
// type runtime breakdown of each — the Fig. 2 analysis as a library
// call.
//
// Run:  ./model_zoo_tour [--tune off|heuristic|measure] [--int8]
//
// With --tune the tour also runs the executable GoogLeNet (batch 1,
// inference) through the activation memory planner and, unless the mode
// is off, the empirical autotuner — closing with the planner's peak-
// memory saving and the tuner's per-shape engine choices.
//
// With --int8 the executable models run synthetic probe batches in
// fp32, are quantized (Network::quantize, calibrated on those same
// batches), and run the probes again — closing with the per-model and
// aggregate fp32-vs-int8 top-1 agreement (docs/QUANTIZATION.md).
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/model_breakdown.hpp"
#include "cli_args.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "nn/model_spec.hpp"
#include "obs/metrics.hpp"
#include "obs/table.hpp"
#include "tune/autotuner.hpp"

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::fmt;
using obs::fmt_percent;

namespace {

/// "1x3x224x224 k7 s2 p3" — one tuner cache key, human-readable.
std::string describe_config(const ConvConfig& c) {
  std::string out = std::to_string(c.batch) + "x" +
                    std::to_string(c.channels) + "x" +
                    std::to_string(c.input) + "x" + std::to_string(c.input) +
                    " -> " + std::to_string(c.filters) + " k" +
                    std::to_string(c.kernel) + " s" +
                    std::to_string(c.stride) + " p" + std::to_string(c.pad);
  if (c.groups > 1) out += " g" + std::to_string(c.groups);
  return out;
}

void tour_executable_googlenet(tune::Mode mode) {
  auto& tuner = tune::Autotuner::instance();
  tuner.set_mode(mode);

  auto net = nn::googlenet_network();
  const std::size_t fused = net.fuse_conv_relu();
  if (mode != tune::Mode::kOff) net.enable_autotune(true);
  net.set_training(false);
  net.set_memory_planning(true);

  std::cout << "\nExecutable GoogLeNet, batch-1 inference ("
            << tune::to_string(mode) << " tuning, " << fused
            << " conv+ReLU pairs fused, memory planner on)\n";

  Rng rng(11);
  net.initialize(rng);
  Tensor input(1, 3, 224, 224);
  input.fill_uniform(rng);

  Timer timer;
  net.forward(input);
  const double cold_ms = timer.elapsed_ms();
  timer.reset();
  net.forward(input);
  const double warm_ms = timer.elapsed_ms();

  const auto planned = net.planned_activation_bytes();
  const auto naive = net.naive_activation_bytes();
  std::cout << "forward: " << fmt(cold_ms, 0) << " ms cold, "
            << fmt(warm_ms, 0) << " ms warm\n"
            << "activation memory: " << fmt(planned / 1048576.0, 1)
            << " MB planned vs " << fmt(naive / 1048576.0, 1)
            << " MB naive ("
            << fmt_percent(1.0 - static_cast<double>(planned) /
                                     static_cast<double>(naive))
            << " saved)\n";

  if (mode == tune::Mode::kOff) return;

  Table table("autotuned engine choices (distinct conv shapes)");
  table.header({"convolution", "pass", "engine", "best (ms)",
                "vs default"});
  for (const auto& e : tuner.entries()) {
    const bool timed = e.decision.measured && e.decision.best_ms > 0.0 &&
                       e.decision.baseline_ms > 0.0;
    table.row({describe_config(e.config),
               std::string(tune::to_string(e.pass)),
               std::string(e.decision.engine_name),
               e.decision.measured ? fmt(e.decision.best_ms, 2) : "-",
               timed ? fmt(e.decision.baseline_ms / e.decision.best_ms, 2) +
                           "x"
                     : "-"});
  }
  table.print(std::cout);
  std::cout << "tune cache: " << obs::metrics().counter("tune.hits").value()
            << " hits, " << obs::metrics().counter("tune.misses").value()
            << " misses, " << obs::metrics().counter("tune.trials").value()
            << " trials, "
            << fmt(obs::metrics().gauge("tune.ms_spent").value(), 1)
            << " ms measuring\n";
}

/// Runs the executable zoo (the VGGs are skipped: same 3x3 conv
/// families as the rest at several times the runtime) through the int8
/// inference path and reports per-model fp32-vs-int8 top-1 agreement.
void tour_int8_agreement() {
  struct Probe {
    const char* name;
    std::size_t channels, size, batch, batches;
    std::function<nn::Network()> make;
  };
  std::vector<Probe> probes;
  probes.push_back({"LeNet-5", 1, 32, 64, 4,
                    [] { return nn::lenet5().instantiate(); }});
  probes.push_back({"AlexNet", 3, 227, 8, 2,
                    [] { return nn::alexnet().instantiate(); }});
  probes.push_back({"OverFeat", 3, 231, 8, 2,
                    [] { return nn::overfeat().instantiate(); }});
  probes.push_back({"GoogLeNet", 3, 224, 4, 2,
                    [] { return nn::googlenet_network(); }});

  std::cout << "\nInt8 inference across the executable zoo (synthetic"
               " probes,\nper-channel weights, min/max activation"
               " calibration on the probe batches)\n";
  Table table("fp32-vs-int8 top-1 agreement");
  table.header({"model", "quantized convs", "samples", "agreement"});
  std::size_t samples_total = 0;
  double agree_total = 0.0;
  for (const auto& p : probes) {
    auto net = p.make();
    net.fuse_conv_relu();
    net.set_training(false);
    Rng rng(13);
    net.initialize(rng);

    std::vector<Tensor> batches(p.batches);
    for (auto& t : batches) {
      t.resize({p.batch, p.channels, p.size, p.size});
      t.fill_uniform(rng, -1.0F, 1.0F);
    }
    std::vector<std::size_t> fp32_top;
    for (const auto& t : batches) {
      const auto top = examples::top1(net.forward(t));
      fp32_top.insert(fp32_top.end(), top.begin(), top.end());
    }
    // The probe batches double as the calibration set: agreement should
    // be judged with activation ranges that actually cover the probes.
    const auto report = net.quantize(batches);
    std::vector<std::size_t> int8_top;
    for (const auto& t : batches) {
      const auto top = examples::top1(net.forward(t));
      int8_top.insert(int8_top.end(), top.begin(), top.end());
    }
    const double agree = examples::agreement(fp32_top, int8_top);
    samples_total += fp32_top.size();
    agree_total += agree * static_cast<double>(fp32_top.size());
    table.row({p.name, std::to_string(report.layers_quantized),
               std::to_string(fp32_top.size()), fmt_percent(agree)});
  }
  table.print(std::cout);
  std::cout << "aggregate top-1 agreement: "
            << fmt_percent(agree_total /
                           static_cast<double>(samples_total))
            << " over " << samples_total << " samples\n";
}

}  // namespace

int main(int argc, char** argv) try {
  std::optional<tune::Mode> tune_mode;
  bool int8 = false;
  bool flag_ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--int8") {
      int8 = true;
    } else if (arg == "--tune" && i + 1 < argc) {
      tune_mode = tune::parse_mode(argv[++i]);
      flag_ok = flag_ok && tune_mode.has_value();
    } else {
      flag_ok = false;
    }
  }
  if (!flag_ok) {
    std::cerr << "usage: model_zoo_tour [--tune off|heuristic|measure]"
                 " [--int8]\n";
    return 2;
  }

  std::vector<nn::ModelSpec> zoo;
  zoo.push_back(nn::lenet5());
  zoo.push_back(nn::alexnet());
  zoo.push_back(nn::vgg16());
  zoo.push_back(nn::vgg19());
  zoo.push_back(nn::googlenet());
  zoo.push_back(nn::overfeat());
  zoo.push_back(nn::mobilenet_v1());

  Table table("model zoo");
  table.header({"model", "layers", "conv", "fc", "parameters (M)",
                "paper reference"});
  const char* refs[] = {
      "LeNet-5 (Fig. 1 walkthrough)",
      "\"more than 60 million parameters\"",
      "13 conv + 3 fc",
      "\"19 layers ... over 144 million parameters\"",
      "\"22 layers with about 6.8 million\"",
      "OverFeat fast",
      "depthwise-separable (post-paper)",
  };
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const auto& m = zoo[i];
    table.row({m.name, std::to_string(m.layers.size()),
               std::to_string(m.count(nn::LayerSpec::Kind::kConv)),
               std::to_string(m.count(nn::LayerSpec::Kind::kFc)),
               fmt(m.parameter_count() / 1e6, 1), refs[i]});
  }
  table.print(std::cout);

  Table shares("simulated training-iteration share by layer type");
  shares.header({"model", "total (ms)", "conv", "pool", "relu", "fc"});
  for (const auto& m : zoo) {
    const auto b = breakdown_model(m);
    shares.row({m.name, fmt(b.total_ms, 0),
                fmt_percent(b.share(nn::LayerSpec::Kind::kConv)),
                fmt_percent(b.share(nn::LayerSpec::Kind::kPool)),
                fmt_percent(b.share(nn::LayerSpec::Kind::kRelu)),
                fmt_percent(b.share(nn::LayerSpec::Kind::kFc))});
  }
  shares.print(std::cout);

  if (tune_mode.has_value()) tour_executable_googlenet(*tune_mode);
  if (int8) tour_int8_agreement();
  return 0;
} catch (const std::exception& e) {
  std::cerr << "model_zoo_tour: " << e.what() << "\n";
  return 1;
}
