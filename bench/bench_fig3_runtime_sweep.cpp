// Figure 3 — "Runtime comparison for seven convolutional implementations
// on GPU with varying configurations."
//
// Five sweeps around the base 5-tuple (64,128,64,11,1); each table prints
// the per-iteration runtime (fwd + bwd, ms) of all seven implementations.
// Unsupported shapes print "n/s" (the paper plots dots/omits them).
// A summary block checks the paper's headline claims.
#include <iostream>
#include <limits>

#include "analysis/sweep.hpp"
#include "obs/exporter.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::export_table;
using obs::fmt;
using frameworks::FrameworkId;

std::string cell(const LayerResult& r) {
  if (!r.supported) return "n/s";
  if (r.out_of_memory) return "OOM";
  return fmt(r.runtime_ms, 1);
}

const LayerResult* find(const SweepPoint& p, FrameworkId id) {
  for (const auto& r : p.results) {
    if (r.framework == id) return &r;
  }
  return nullptr;
}

// Ratio of the best non-fbfft runtime to fbfft's (fbfft speedup).
double fbfft_speedup(const SweepPoint& p) {
  const auto* fb = find(p, FrameworkId::kFbfft);
  if (fb == nullptr || !fb->supported || fb->out_of_memory) return 0.0;
  double best_other = std::numeric_limits<double>::max();
  for (const auto& r : p.results) {
    if (r.framework == FrameworkId::kFbfft || !r.supported ||
        r.out_of_memory) {
      continue;
    }
    best_other = std::min(best_other, r.runtime_ms);
  }
  return best_other / fb->runtime_ms;
}

void print_sweep(const SweepSpec& spec, obs::RunExporter& exporter) {
  const auto points = run_sweep(spec);
  Table table("Fig. 3: runtime (ms) vs " + to_string(spec.parameter) +
              ", base " + base_config().to_string());
  std::vector<std::string> head{to_string(spec.parameter)};
  for (const auto id : frameworks::all_frameworks()) {
    head.emplace_back(frameworks::to_string(id));
  }
  table.header(head);
  for (const auto& p : points) {
    std::vector<std::string> row{std::to_string(p.value)};
    for (const auto id : frameworks::all_frameworks()) {
      row.push_back(cell(*find(p, id)));
    }
    table.row(row);
  }
  table.print(std::cout);
  export_table(exporter, table,
               "fig3_" + obs::sanitize_column(to_string(spec.parameter)));

  if (spec.parameter == SweepParameter::kBatch ||
      spec.parameter == SweepParameter::kInput) {
    double lo = std::numeric_limits<double>::max();
    double hi = 0.0;
    for (const auto& p : points) {
      const double s = fbfft_speedup(p);
      if (s <= 0.0) continue;
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    std::cout << "  fbfft speedup over best other: " << fmt(lo, 2) << "x - "
              << fmt(hi, 2) << "x   (paper: 1.4x - 9.7x across batch/input)\n";
  }
  if (spec.parameter == SweepParameter::kKernel) {
    for (const auto& p : points) {
      const auto* fb = find(p, FrameworkId::kFbfft);
      const auto* cu = find(p, FrameworkId::kCudnn);
      if (fb == nullptr || cu == nullptr || !fb->supported) continue;
      const double ratio = fb->runtime_ms / cu->runtime_ms;
      std::cout << "  k=" << p.value << ": fbfft/cuDNN = " << fmt(ratio, 2)
                << (ratio > 1.0 ? "  (cuDNN faster)" : "  (fbfft faster)")
                << '\n';
    }
    std::cout << "  (paper: cuDNN 1.21x-2.62x faster below k=7; fbfft up to "
                 "19x faster above)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_fig3_runtime_sweep");
  exporter.annotate("device", gpusim::tesla_k40c().name);
  exporter.annotate("base_config", base_config().to_string());

  std::cout << "Reproduction of Figure 3 (ICPP'16 GPU-CNN study): runtime of "
               "one training iteration\nof a single convolutional layer, "
               "simulated on a Tesla K40c device model.\n";
  for (const auto& spec : paper_sweeps()) print_sweep(spec, exporter);
  return 0;
}
