// Figure 5 — "Memory usage comparison for seven convolutional
// implementations on GPU with varying configurations."
//
// Peak device memory (MB, as nvidia-smi would report it) over the same
// five sweeps as Figure 3. Paper anchors: cuda-convnet2 lowest
// (125–2076 MB), Torch-cunn close behind; Caffe/cuDNN/Theano-CorrMM
// higher (up to ~3800 MB); FFT implementations highest (fbfft
// 1632–10866 MB) with step fluctuations at power-of-two padding
// boundaries; configurations that exceed the 12 GB K40c are flagged
// (the paper's "program crush" observation).
#include <algorithm>
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

std::string cell(const LayerResult& r) {
  if (!r.supported) return "n/s";
  std::string s = fmt(r.peak_mb, 0);
  if (r.out_of_memory) s += "!";
  return s;
}

void print_sweep(const SweepSpec& spec, obs::RunExporter& exporter) {
  const auto points = run_sweep(spec);
  Table table("Fig. 5: peak GPU memory (MB) vs " +
              to_string(spec.parameter) + ", base " +
              base_config().to_string() + "  ('!' = exceeds 12 GB K40c)");
  std::vector<std::string> head{to_string(spec.parameter)};
  for (const auto id : frameworks::all_frameworks()) {
    head.emplace_back(frameworks::to_string(id));
  }
  table.header(head);
  for (const auto& p : points) {
    std::vector<std::string> row{std::to_string(p.value)};
    for (const auto& r : p.results) row.push_back(cell(r));
    table.row(row);
  }
  table.print(std::cout);
  export_table(exporter, table,
               "fig5_" + obs::sanitize_column(to_string(spec.parameter)));
}

void print_band_summary(obs::RunExporter& exporter) {
  struct Band {
    double lo = std::numeric_limits<double>::max();
    double hi = 0.0;
  };
  std::vector<Band> bands(frameworks::kAllFrameworks.size());
  for (const auto& spec : paper_sweeps()) {
    for (const auto& p : run_sweep(spec)) {
      for (std::size_t i = 0; i < p.results.size(); ++i) {
        const auto& r = p.results[i];
        if (!r.supported) continue;
        bands[i].lo = std::min(bands[i].lo, r.peak_mb);
        bands[i].hi = std::max(bands[i].hi, r.peak_mb);
      }
    }
  }
  Table table("Memory bands across all five sweeps (paper Fig. 5 ranges)");
  table.header({"implementation", "min (MB)", "max (MB)", "paper band"});
  const char* paper[] = {"136-3809",  "155-3810",  "170-2093",
                         "130-3709",  "125-2076",  "1632-10866",
                         "(fbfft-like, lower)"};
  for (std::size_t i = 0; i < bands.size(); ++i) {
    table.row({std::string(frameworks::to_string(
                   frameworks::kAllFrameworks[i])),
               fmt(bands[i].lo, 0), fmt(bands[i].hi, 0), paper[i]});
  }
  table.print(std::cout);
  export_table(exporter, table, "fig5_bands");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_fig5_memory_usage");
  exporter.annotate("device", gpusim::tesla_k40c().name);
  exporter.annotate("base_config", base_config().to_string());

  std::cout << "Reproduction of Figure 5 (ICPP'16 GPU-CNN study): peak device "
               "memory across the five parameter sweeps.\n";
  for (const auto& spec : paper_sweeps()) print_sweep(spec, exporter);
  print_band_summary(exporter);
  return 0;
}
