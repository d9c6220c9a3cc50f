// Figure 7 — "Data transfer overheads of different implementations over
// five configurations."
//
// The share of one training iteration spent in exposed (non-overlapped)
// CPU<->GPU transfers, for the five Table I configurations. Paper
// anchors: cuDNN, Caffe and fbfft ~0% (prefetch threads / pinned async
// copies); Torch-cunn, cuda-convnet2 and Theano-fft 1–15%; Theano-CorrMM
// spikes above 60% at Conv2 (host staging of the lowered buffer).
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
using obs::fmt_percent;

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_fig7_transfer_overhead");
  exporter.annotate("device", gpusim::tesla_k40c().name);

  std::cout << "Reproduction of Figure 7 (ICPP'16 GPU-CNN study): data "
               "transfer share of total runtime.\n";
  Table table("Fig. 7: transfer share per Table I configuration");
  std::vector<std::string> head{"implementation"};
  for (std::size_t i = 0; i < TableOne::kCount; ++i) {
    head.push_back(TableOne::name(i));
  }
  table.header(head);
  Table long_form("Fig. 7: transfer share of total runtime over Table I");
  long_form.header({"layer", "implementation", "transfer share"});
  for (const auto id : frameworks::all_frameworks()) {
    std::vector<std::string> row{
        std::string(frameworks::to_string(id))};
    for (std::size_t i = 0; i < TableOne::kCount; ++i) {
      const auto r = evaluate(id, TableOne::layer(i));
      row.push_back(r.supported ? fmt_percent(r.transfer_share) : "n/s");
      if (r.supported) {
        long_form.row({TableOne::name(i),
                       std::string(frameworks::to_string(id)),
                       fmt(r.transfer_share, 4)});
      }
    }
    table.row(row);
  }
  table.print(std::cout);
  export_table(exporter, long_form, "fig7_transfers");
  std::cout << "\nPaper anchors: Caffe/cuDNN/fbfft ~0%; Torch-cunn, "
               "cuda-convnet2, Theano-fft 1-15%;\nTheano-CorrMM > 60% at "
               "Conv2 (host staging of the lowered buffer).\n";
  return 0;
}
