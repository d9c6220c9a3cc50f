// Figure 4 — "Runtime breakdowns of convolutional layers in different
// implementations."
//
// At the representative configuration (64,128,64,11,1) (paper §V.A),
// prints each implementation's hotspot kernels with their share of the
// layer's kernel time, grouped the way the paper groups them ("we group
// the similar kernels who have the same functionalities into one").
// Paper anchors: GEMM dominates Caffe/Torch-cunn/Theano-CorrMM at
// 87%/83%/80%; cuDNN is dominated by wgrad_alg0_engine + cuDNN_gemm;
// cuda-convnet2 by its three direct kernels; fbfft by FFT + Transpose +
// Cgemm; Theano-fft by data preparation and transfer.
#include <iostream>
#include <map>

#include "analysis/conv_runner.hpp"
#include "analysis/sweep.hpp"
#include "obs/exporter.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::export_table;
using obs::fmt;
using obs::fmt_percent;

void print_breakdown(const LayerResult& r, Table& combined) {
  for (const auto& h : r.hotspots) {
    combined.row({std::string(frameworks::to_string(r.framework)), h.name,
                  gpusim::to_string(h.kind), std::to_string(h.launches),
                  fmt(h.total_ms, 3), fmt(h.share, 4)});
  }
  Table table(std::string("Fig. 4: hotspot kernels of ") +
              std::string(frameworks::to_string(r.framework)) + " at " +
              r.config.to_string());
  table.header({"kernel", "class", "launches", "time (ms)", "share"});
  for (const auto& h : r.hotspots) {
    table.row({h.name, gpusim::to_string(h.kind),
               std::to_string(h.launches), fmt(h.total_ms, 2),
               fmt_percent(h.share)});
  }
  // The paper folds CPU-side preparation/transfer into Theano-fft's
  // breakdown; show it as an explicit row relative to total runtime.
  if (r.transfer_ms > 0.05) {
    table.row({"(CPU-GPU transfer + host prep)", "-", "-",
               fmt(r.transfer_ms, 2), fmt_percent(r.transfer_share)});
  }
  table.print(std::cout);

  // Functional-class rollup (the paper's grouping).
  std::map<std::string, double> by_class;
  double total = 0.0;
  for (const auto& h : r.hotspots) {
    by_class[gpusim::to_string(h.kind)] += h.total_ms;
    total += h.total_ms;
  }
  std::cout << "  grouped:";
  for (const auto& [name, ms] : by_class) {
    std::cout << "  " << name << " " << fmt_percent(ms / total, 0);
  }
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_fig4_hotspot_kernels");
  exporter.annotate("device", gpusim::tesla_k40c().name);
  exporter.annotate("base_config", base_config().to_string());

  std::cout << "Reproduction of Figure 4 (ICPP'16 GPU-CNN study): hotspot "
               "kernel breakdown at the representative configuration.\n"
               "Paper anchors: GEMM share 87%/83%/80% for "
               "Caffe/Torch-cunn/Theano-CorrMM.\n";
  const ConvConfig cfg = base_config();
  Table combined("Fig. 4: hotspot kernels at " + cfg.to_string());
  combined.header({"implementation", "kernel", "class", "launches",
                   "time (ms)", "share"});
  for (const auto& r : evaluate_all(cfg)) {
    if (!r.supported) continue;
    print_breakdown(r, combined);
  }
  export_table(exporter, combined, "fig4_hotspots");
  return 0;
}
