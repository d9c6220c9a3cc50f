// Stream-scheduling ablation: mechanising the paper's §V.D transfer
// advice with the timeline model.
//
// For each implementation at each Table I configuration, builds three
// schedules of two consecutive training iterations:
//   sync      — copies and kernels serialised on one stream (worst case);
//   async     — copies on a copy stream, kernels waiting on their own
//               iteration's copy (cudaMemcpyAsync);
//   prefetch  — iteration i+1's copy issued during iteration i's compute
//               (Caffe's data-prefetch thread).
// The makespans show why the paper measures ~0% transfer overhead for
// prefetching frameworks and 1-15% (or 60%+) for synchronous ones.
#include <iostream>

#include "analysis/sweep.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/timeline.hpp"
#include "obs/exporter.hpp"
#include "obs/table.hpp"
#include "obs/trace.hpp"

namespace {

using namespace gpucnn;
using namespace gpucnn::analysis;
using obs::Table;
using obs::export_table;
using obs::fmt;
using gpusim::TimelineItem;

struct IterationCost {
  double kernels_ms = 0.0;
  double copies_ms = 0.0;  // raw, before any overlap
};

IterationCost iteration_cost(frameworks::FrameworkId id,
                             const ConvConfig& cfg) {
  const auto dev = gpusim::tesla_k40c();
  const auto plan = frameworks::framework(id).plan(cfg);
  gpusim::Profiler profiler(dev);
  IterationCost cost;
  for (const auto& k : plan.kernels) {
    cost.kernels_ms += profiler.launch(k).duration_ms;
  }
  for (const auto& t : plan.transfers) {
    cost.copies_ms += gpusim::raw_transfer_ms(dev, t);
  }
  return cost;
}

double schedule_two_iterations(const IterationCost& cost,
                               const char* mode) {
  using Kind = TimelineItem::Kind;
  std::vector<TimelineItem> items;
  const std::string m(mode);
  if (m == "sync") {
    for (int iter = 0; iter < 2; ++iter) {
      items.push_back({Kind::kTransfer, "copy", 0, cost.copies_ms, {}});
      items.push_back({Kind::kKernel, "iter", 0, cost.kernels_ms, {}});
    }
  } else if (m == "async") {
    // copy_i on stream 1; compute_i depends on copy_i.
    items.push_back({Kind::kTransfer, "copy0", 1, cost.copies_ms, {}});
    items.push_back({Kind::kKernel, "iter0", 0, cost.kernels_ms, {0}});
    items.push_back({Kind::kTransfer, "copy1", 1, cost.copies_ms, {}});
    items.push_back({Kind::kKernel, "iter1", 0, cost.kernels_ms, {2}});
  } else {  // prefetch: copy1 issued immediately, before iter0 finishes
    items.push_back({Kind::kTransfer, "copy0", 1, cost.copies_ms, {}});
    items.push_back({Kind::kTransfer, "copy1", 1, cost.copies_ms, {}});
    items.push_back({Kind::kKernel, "iter0", 0, cost.kernels_ms, {0}});
    items.push_back({Kind::kKernel, "iter1", 0, cost.kernels_ms, {1}});
  }
  const auto result = gpusim::schedule(items);
  // With --trace, each schedule is appended end-to-end on the
  // "streams:<mode>:stream<s>" virtual tracks for side-by-side viewing.
  gpusim::append_trace(obs::tracer(), items, result,
                       std::string("streams:") + mode);
  return result.makespan_ms;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::ExportOptions::parse(argc, argv);
  obs::RunExporter exporter(opts, "bench_streams_ablation");
  exporter.annotate("device", gpusim::tesla_k40c().name);

  std::cout
      << "Stream-scheduling ablation over two training iterations "
         "(timeline model):\nsync = one stream; async = copy stream + "
         "dependency; prefetch = next batch copied during compute.\n";
  Table long_form("Stream-scheduling makespans (ms) over two iterations");
  long_form.header({"layer", "implementation", "sync (ms)", "async (ms)",
                    "prefetch (ms)", "prefetch gain"});
  for (const std::size_t layer : {0UL, 1UL}) {
    const auto cfg = TableOne::layer(layer);
    Table table("makespan (ms) @ " + TableOne::name(layer) + " " +
                cfg.to_string());
    table.header({"implementation", "sync", "async", "prefetch",
                  "prefetch gain"});
    for (const auto id : frameworks::all_frameworks()) {
      if (!frameworks::framework(id).supports(cfg).ok) continue;
      const auto cost = iteration_cost(id, cfg);
      const double sync = schedule_two_iterations(cost, "sync");
      const double async_ms = schedule_two_iterations(cost, "async");
      const double prefetch = schedule_two_iterations(cost, "prefetch");
      table.row({std::string(frameworks::to_string(id)), fmt(sync, 1),
                 fmt(async_ms, 1), fmt(prefetch, 1),
                 fmt(sync / prefetch, 2) + "x"});
      long_form.row({TableOne::name(layer),
                     std::string(frameworks::to_string(id)), fmt(sync, 3),
                     fmt(async_ms, 3), fmt(prefetch, 3),
                     fmt(sync / prefetch, 3)});
    }
    table.print(std::cout);
  }
  export_table(exporter, long_form, "streams_makespan");
  std::cout << "\nPrefetching recovers the entire copy cost whenever "
               "copies are shorter than compute\n(every implementation "
               "here) — the mechanism behind Caffe's ~0% in Fig. 7.\n";
  return 0;
}
