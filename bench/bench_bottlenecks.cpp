// Bottleneck report — the paper's conclusion: "we present a detailed
// performance analysis for those implementations and explore potential
// bottlenecks". For each implementation at each Table I configuration,
// prints which pipeline (compute, global memory, shared memory, launch)
// binds each hotspot kernel, and how kernel time splits across
// bottleneck classes.
#include <iostream>
#include <map>

#include "analysis/sweep.hpp"
#include "frameworks/framework.hpp"
#include "gpusim/profiler.hpp"
#include "obs/table.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::fmt_percent;

void report(const ConvConfig& cfg, const std::string& label) {
  Table table("bottleneck split @ " + label + " " + cfg.to_string() +
              "  (share of kernel time bound by each pipeline)");
  table.header({"implementation", "compute", "global-mem", "shared-mem",
                "launch", "dominant kernel", "its bottleneck"});
  for (const auto id : frameworks::all_frameworks()) {
    const auto& fw = frameworks::framework(id);
    if (!fw.supports(cfg).ok) continue;
    gpusim::Profiler profiler(gpusim::tesla_k40c());
    std::map<gpusim::Bottleneck, double> split;
    double total = 0.0;
    std::string heaviest_name;
    gpusim::Bottleneck heaviest_kind{};
    double heaviest_ms = 0.0;
    for (const auto& k : fw.plan(cfg).kernels) {
      const auto& m = profiler.launch(k);
      split[m.bottleneck] += m.duration_ms;
      total += m.duration_ms;
      if (m.duration_ms > heaviest_ms) {
        heaviest_ms = m.duration_ms;
        heaviest_name = k.name;
        heaviest_kind = m.bottleneck;
      }
    }
    const auto share = [&](gpusim::Bottleneck b) {
      const auto it = split.find(b);
      return fmt_percent(it == split.end() ? 0.0 : it->second / total, 0);
    };
    table.row({std::string(fw.name()),
               share(gpusim::Bottleneck::kCompute),
               share(gpusim::Bottleneck::kGlobalMemory),
               share(gpusim::Bottleneck::kSharedMemory),
               share(gpusim::Bottleneck::kLaunch), heaviest_name,
               gpusim::to_string(heaviest_kind)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Bottleneck analysis (paper conclusion: \"explore potential "
               "bottlenecks and acceleration\nopportunities\"): which "
               "pipeline bounds each implementation's kernels.\n";
  report(base_config(), "base");
  for (const std::size_t i : {0UL, 1UL, 4UL}) {
    report(TableOne::layer(i), TableOne::name(i));
  }
  return 0;
}
