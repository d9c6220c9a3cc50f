// Figure 6 + Tables I and II — "GPU performance profiling."
//
// For the five benchmarking configurations of Table I, prints the
// runtime and the paper's five nvprof metrics (achieved occupancy, warp
// execution efficiency, global load/store efficiency, IPC, shared
// efficiency), each a runtime-weighted average over the implementation's
// top kernels, plus the two shared-memory bank-conflict events. Table II
// (registers/thread and shared memory/block of the dominant kernels) is
// printed from the same kernel profiles the simulation runs.
//
// Paper anchors: most achieved occupancies < 30%; cuda-convnet2 14–22%;
// cuDNN 29–37%; Theano-fft 39–59% but slowest; Theano-CorrMM gld
// 11.6–15.8%; WEE > 97% everywhere except Theano-fft (66–81%); shared
// efficiency > 130% for cuDNN, 8–20% for Theano-fft.
#include <iostream>

#include "analysis/conv_runner.hpp"
#include "obs/exporter.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::export_table;
using obs::fmt;

void print_table1(obs::RunExporter& exporter) {
  Table table("Table I: convolution configurations for benchmarking");
  table.header({"layer", "configuration", "channels"});
  for (std::size_t i = 0; i < TableOne::kCount; ++i) {
    const auto cfg = TableOne::layer(i);
    table.row({TableOne::name(i), cfg.to_string(),
               std::to_string(cfg.channels)});
  }
  table.print(std::cout);
  export_table(exporter, table, "table1_configs");
}

void print_table2(obs::RunExporter& exporter) {
  Table table("Table II: registers per thread and shared memory per block");
  table.header({"implementation", "registers", "shared memory (KB)"});
  for (const auto id : frameworks::all_frameworks()) {
    const auto& fw = frameworks::framework(id);
    table.row({std::string(fw.name()),
               std::to_string(fw.table2_registers()),
               fmt(fw.table2_smem_kb(), 1)});
  }
  table.print(std::cout);
  export_table(exporter, table, "table2_resources");
}

void print_metric_rows(std::size_t layer, Table& combined) {
  const auto cfg = TableOne::layer(layer);
  Table table("Fig. 6 @ " + TableOne::name(layer) + " " + cfg.to_string());
  table.header({"implementation", "runtime(ms)", "occ(%)", "ipc", "wee(%)",
                "gld(%)", "gst(%)", "shared(%)"});
  for (const auto& r : evaluate_all(cfg)) {
    if (!r.supported) {
      table.row({std::string(frameworks::to_string(r.framework)), "n/s", "-",
                 "-", "-", "-", "-", "-"});
      continue;
    }
    const auto& m = r.metrics;
    table.row({std::string(frameworks::to_string(r.framework)),
               fmt(r.kernel_ms, 1), fmt(m.achieved_occupancy, 1),
               fmt(m.ipc, 2), fmt(m.warp_execution_efficiency, 1),
               fmt(m.gld_efficiency, 1), fmt(m.gst_efficiency, 1),
               fmt(m.shared_efficiency, 1)});
    combined.row({TableOne::name(layer),
                  std::string(frameworks::to_string(r.framework)),
                  fmt(r.kernel_ms, 2), fmt(m.achieved_occupancy, 2),
                  fmt(m.ipc, 3), fmt(m.warp_execution_efficiency, 2),
                  fmt(m.gld_efficiency, 2), fmt(m.gst_efficiency, 2),
                  fmt(m.shared_efficiency, 2)});
  }
  table.print(std::cout);
}

void print_bank_conflict_events(obs::RunExporter& exporter) {
  // The two nvprof *events* the paper collects alongside the metrics.
  const auto cfg = TableOne::layer(0);
  Table table(
      "nvprof events @ Conv1: shared-memory bank-conflict replays (x10^6)");
  table.header({"implementation", "ld conflicts", "st conflicts"});
  for (const auto& r : evaluate_all(cfg)) {
    if (!r.supported) continue;
    double ld = 0.0;
    double st = 0.0;
    gpusim::Profiler profiler(gpusim::tesla_k40c());
    for (const auto& k :
         frameworks::framework(r.framework).plan(cfg).kernels) {
      const auto& m = profiler.launch(k);
      ld += m.shared_load_bank_conflicts;
      st += m.shared_store_bank_conflicts;
    }
    table.row({std::string(frameworks::to_string(r.framework)),
               fmt(ld / 1e6, 1), fmt(st / 1e6, 1)});
  }
  table.print(std::cout);
  export_table(exporter, table, "fig6_bank_conflicts");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_fig6_gpu_metrics");
  exporter.annotate("device", gpusim::tesla_k40c().name);

  std::cout << "Reproduction of Figure 6 and Tables I-II (ICPP'16 GPU-CNN "
               "study): nvprof-style metrics\nover the five benchmark "
               "configurations, runtime-weighted across top kernels.\n";
  print_table1(exporter);
  print_table2(exporter);
  Table combined("Fig. 6: runtime-weighted nvprof metrics over Table I");
  combined.header({"layer", "implementation", "runtime (ms)", "occupancy",
                   "ipc", "wee", "gld", "gst", "shared"});
  for (std::size_t i = 0; i < TableOne::kCount; ++i) {
    print_metric_rows(i, combined);
  }
  export_table(exporter, combined, "fig6_metrics");
  print_bank_conflict_events(exporter);
  return 0;
}
