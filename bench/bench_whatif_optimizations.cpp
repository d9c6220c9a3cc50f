// "Opportunities for further optimization" (paper abstract, §V
// summaries) — each profiling subsection's suggestion applied to each
// implementation's plan, with the predicted speedup at the representative
// configuration and at the Conv2 anomaly.
#include <iostream>

#include "analysis/sweep.hpp"
#include "analysis/whatif.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::fmt;

void print_whatif(const ConvConfig& cfg, const std::string& label) {
  Table table("predicted speedup from each paper suggestion @ " + label +
              " " + cfg.to_string());
  std::vector<std::string> head{"implementation"};
  for (const auto opt : kAllOptimizations) {
    head.emplace_back(to_string(opt));
  }
  table.header(head);
  for (const auto id : frameworks::all_frameworks()) {
    if (!frameworks::framework(id).supports(cfg).ok) continue;
    std::vector<std::string> row{std::string(frameworks::to_string(id))};
    for (const auto& r : what_if(id, cfg)) {
      row.push_back(fmt(r.speedup(), 2) + "x");
    }
    table.row(row);
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout
      << "What-if analysis: the paper's optimisation suggestions applied "
         "to each implementation's\nexecution plan (>1.00x = the "
         "suggestion helps that implementation on that shape).\n"
         "Paper anchors: bank conflicts are Theano-fft's primary "
         "problem; transfer fixes erase the\nTheano-CorrMM Conv2 "
         "anomaly; prefetching implementations gain nothing from "
         "transfer fixes.\n";
  print_whatif(base_config(), "base");
  print_whatif(TableOne::layer(1), "Conv2");
  return 0;
}
