// convnet-benchmarks presentation (paper ref [27]): the community
// benchmark the paper's Table I layers and base-tuple methodology come
// from reported forward / backward / total per layer per implementation.
// This bench prints the same split from the simulator's per-pass tags.
#include <iostream>

#include "analysis/conv_runner.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::fmt;

}  // namespace

int main() {
  std::cout << "convnet-benchmarks-style per-pass split (the reporting "
               "format of the paper's ref [27]).\nbwd = backward-data + "
               "backward-filter (+ pass-internal auxiliaries).\n";
  for (std::size_t i = 0; i < TableOne::kCount; ++i) {
    const auto cfg = TableOne::layer(i);
    Table table(TableOne::name(i) + " " + cfg.to_string() +
                "  fwd / bwd / total (ms)");
    table.header({"implementation", "fwd", "bwd", "total",
                  "bwd/fwd ratio"});
    for (const auto& r : evaluate_all(cfg)) {
      if (!r.supported) {
        table.row({std::string(frameworks::to_string(r.framework)), "n/s",
                   "-", "-", "-"});
        continue;
      }
      const double fwd = r.forward_ms();
      const double bwd = r.backward_ms();
      table.row({std::string(frameworks::to_string(r.framework)),
                 fmt(fwd, 1), fmt(bwd, 1), fmt(fwd + bwd, 1),
                 fmt(fwd > 0.0 ? bwd / fwd : 0.0, 2)});
    }
    table.print(std::cout);
  }
  std::cout << "\nExpected shape: bwd ~ 2x fwd for GEMM/direct "
               "implementations (two backward GEMMs per forward one).\n";
  return 0;
}
