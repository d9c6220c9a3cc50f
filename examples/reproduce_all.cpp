// Reproduce-all driver: regenerates every paper figure's data as one
// self-describing artifact directory (CSV and/or JSON tables, a metrics
// snapshot, a Chrome trace, and a versioned manifest.json tying them
// together — schema reference: docs/METRICS.md).
//
// Run:  ./reproduce_all [output_dir] [--json] [--csv] [--trace]
// (default: paper_output, CSV only — the historical behaviour).
#include <iostream>

#include "analysis/model_breakdown.hpp"
#include "analysis/sweep.hpp"
#include "obs/exporter.hpp"
#include "obs/table.hpp"

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::export_table;
using obs::fmt;

namespace {

std::vector<std::string> framework_header(const std::string& first) {
  std::vector<std::string> head{first};
  for (const auto id : frameworks::all_frameworks()) {
    head.emplace_back(frameworks::to_string(id));
  }
  return head;
}

void stage(obs::RunExporter& exporter, const Table& table,
           const std::string& stem) {
  export_table(exporter, table, stem);
  std::cout << "staged " << stem << " (" << table.rows() << " rows)\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = obs::ExportOptions::parse(argc, argv);
  if (!opts.csv && !opts.json) opts.csv = true;  // historical default
  obs::RunExporter exporter(opts, "reproduce_all");
  exporter.annotate("device", gpusim::tesla_k40c().name);
  exporter.annotate("base_config", base_config().to_string());

  // Figure 2.
  {
    Table t("Fig. 2: per-layer-type runtime share of one training "
            "iteration");
    t.header({"model", "batch", "total (ms)", "conv", "pool", "relu", "fc",
              "concat", "lrn", "dropout", "softmax"});
    using K = nn::LayerSpec::Kind;
    for (const auto& model : nn::figure2_models()) {
      const auto b = breakdown_model(model);
      t.row({model.name, std::to_string(model.batch), fmt(b.total_ms, 1),
             fmt(b.share(K::kConv), 4), fmt(b.share(K::kPool), 4),
             fmt(b.share(K::kRelu), 4), fmt(b.share(K::kFc), 4),
             fmt(b.share(K::kConcat), 4), fmt(b.share(K::kLrn), 4),
             fmt(b.share(K::kDropout), 4), fmt(b.share(K::kSoftmax), 4)});
    }
    stage(exporter, t, "fig2_breakdown");
  }

  // Figures 3 and 5 share the sweeps.
  for (const auto& spec : paper_sweeps()) {
    const std::string param = to_string(spec.parameter);
    Table runtime("Fig. 3: runtime (ms) vs " + param);
    runtime.header(framework_header(param));
    Table memory("Fig. 5: peak memory (MB) vs " + param);
    memory.header(framework_header(param));
    for (const auto& point : run_sweep(spec)) {
      std::vector<std::string> rt{std::to_string(point.value)};
      std::vector<std::string> mem{std::to_string(point.value)};
      for (const auto& r : point.results) {
        rt.push_back(!r.supported ? "" : fmt(r.runtime_ms, 3));
        mem.push_back(!r.supported ? "" : fmt(r.peak_mb, 1));
      }
      runtime.row(rt);
      memory.row(mem);
    }
    const std::string suffix = obs::sanitize_column(param);
    stage(exporter, runtime, "fig3_" + suffix);
    stage(exporter, memory, "fig5_" + suffix);
  }

  // Figure 4: hotspot kernels at the representative configuration.
  {
    Table t("Fig. 4: hotspot kernels at the representative configuration");
    t.header({"implementation", "kernel", "class", "launches", "time (ms)",
              "share"});
    for (const auto& r : evaluate_all(base_config())) {
      if (!r.supported) continue;
      for (const auto& h : r.hotspots) {
        t.row({std::string(frameworks::to_string(r.framework)), h.name,
               gpusim::to_string(h.kind), std::to_string(h.launches),
               fmt(h.total_ms, 3), fmt(h.share, 4)});
      }
    }
    stage(exporter, t, "fig4_hotspots");
  }

  // Figure 6 metrics and Figure 7 transfer shares over Table I.
  {
    Table metrics("Fig. 6: runtime-weighted nvprof metrics over Table I");
    metrics.header({"layer", "implementation", "runtime (ms)", "occupancy",
                    "ipc", "wee", "gld", "gst", "shared"});
    Table transfers("Fig. 7: transfer share of total runtime over Table I");
    transfers.header({"layer", "implementation", "transfer share"});
    for (std::size_t i = 0; i < TableOne::kCount; ++i) {
      for (const auto& r : evaluate_all(TableOne::layer(i))) {
        if (!r.supported) continue;
        metrics.row({TableOne::name(i),
                     std::string(frameworks::to_string(r.framework)),
                     fmt(r.kernel_ms, 2),
                     fmt(r.metrics.achieved_occupancy, 2),
                     fmt(r.metrics.ipc, 3),
                     fmt(r.metrics.warp_execution_efficiency, 2),
                     fmt(r.metrics.gld_efficiency, 2),
                     fmt(r.metrics.gst_efficiency, 2),
                     fmt(r.metrics.shared_efficiency, 2)});
        transfers.row({TableOne::name(i),
                       std::string(frameworks::to_string(r.framework)),
                       fmt(r.transfer_share, 4)});
      }
    }
    stage(exporter, metrics, "fig6_metrics");
    stage(exporter, transfers, "fig7_transfers");
  }

  const auto manifest = exporter.finish();
  std::cout << "done; " << exporter.artifact_count()
            << " artifacts described by " << manifest.string() << "\n";
  return 0;
}
