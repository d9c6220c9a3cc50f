// Figure 2 — "Runtime breakdown of typical real-life CNN models:
// GoogLeNet, VGG, OverFeat and AlexNet."
//
// One simulated training iteration (forward + backward) of each model,
// layer by layer, rolled up by layer type. Paper anchor: convolutional
// layers consume the bulk of total runtime — 86%, 89%, 90% and 94%
// respectively for the four models.
#include <iostream>

#include "analysis/model_breakdown.hpp"
#include "obs/exporter.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::export_table;
using obs::fmt;
using obs::fmt_percent;
using nn::LayerSpec;

constexpr LayerSpec::Kind kKinds[] = {
    LayerSpec::Kind::kConv,    LayerSpec::Kind::kPool,
    LayerSpec::Kind::kRelu,    LayerSpec::Kind::kFc,
    LayerSpec::Kind::kConcat,  LayerSpec::Kind::kLrn,
    LayerSpec::Kind::kDropout, LayerSpec::Kind::kSoftmax,
};

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_fig2_model_breakdown");
  exporter.annotate("device", gpusim::tesla_k40c().name);

  std::cout << "Reproduction of Figure 2 (ICPP'16 GPU-CNN study): per-layer-"
               "type runtime breakdown of one training iteration.\n"
               "Paper anchors: conv share 86% / 89% / 90% / 94% for "
               "GoogLeNet / VGG / OverFeat / AlexNet.\n";

  Table table("Fig. 2: runtime share by layer type");
  table.header({"model", "batch", "total (ms)", "Conv", "Pooling", "Relu",
                "FC", "Concat", "LRN", "Dropout", "Softmax"});
  for (const auto& model : nn::figure2_models()) {
    const auto b = breakdown_model(model);
    std::vector<std::string> row{model.name, std::to_string(model.batch),
                                 fmt(b.total_ms, 0)};
    for (const auto kind : kKinds) {
      row.push_back(fmt_percent(b.share(kind)));
    }
    table.row(row);
  }
  table.print(std::cout);
  export_table(exporter, table, "fig2_breakdown");

  // Per-layer detail for AlexNet (the paper's headline model).
  const auto alex = breakdown_model(nn::alexnet());
  Table detail("AlexNet per-layer simulated times (training iteration)");
  detail.header({"layer", "type", "time (ms)"});
  for (const auto& l : alex.layers) {
    detail.row({l.name, std::string(nn::to_string(l.kind)),
                fmt(l.time_ms, 2)});
  }
  detail.print(std::cout);
  export_table(exporter, detail, "fig2_alexnet_layers");
  return 0;
}
