// Shared plumbing of the benchmark workloads: arguments, the result
// record printed as the last line of a run, peak memory, counter
// snapshots, set-up spans, span self times and the conv pass replay.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/shape.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "tune/autotuner.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Everything one run reports. `metrics` holds every value the run
/// measured; run.py prints the subset BENCHMARK.json names for the mode.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;
  /// Free-form facts written beside the metrics (sizes, exact-repeat
  /// marks, failure reasons).
  std::map<std::string, std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name),
                         std::make_pair(value, std::move(unit)));
  }
  /// Records a failed check: the run stays correct only while none fail.
  void fail(const std::string& what);
};

/// `v` with up to 9 significant digits, for notes.
[[nodiscard]] std::string format_g(double v);

/// Wall-clock seconds since an arbitrary fixed origin (steady clock).
[[nodiscard]] double now_s();

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// Restarts peak-RSS accounting at the current resident size, so
/// calibration buffers do not count towards the workload's peak.
void reset_peak_rss();

/// Host CPU time so far, from /proc/stat: {steal, total} in clock
/// ticks. Steal is time this machine's vCPUs were runnable but not run
/// — the neighbour load that no metric of the run can remove.
[[nodiscard]] std::pair<double, double> host_cpu_ticks();

/// Snapshot of the library counters the per-layer metrics are built on.
[[nodiscard]] Counts snapshot_counters();

/// Adds the per-operation count metrics (core, blas, conv, fft, quant)
/// over the window start..end, and notes which per-op counts repeated
/// exactly between its two halves (start..mid, mid..end).
void add_count_metrics(Result& r, const Counts& start, const Counts& mid,
                       const Counts& end, double ops_first_half,
                       double ops_second_half);
/// tune.* metrics (totals over the whole run).
void add_tune_metrics(Result& r);

/// Set-up step timing. With `record`, the step is added to the
/// bench:setup virtual track when it ends: tracing stays off during
/// set-up, where the tuner's sweep would record millions of pool spans.
class SetupClock {
 public:
  SetupClock(std::string name, bool record);
  ~SetupClock() { (void)stop(); }
  SetupClock(const SetupClock&) = delete;
  SetupClock& operator=(const SetupClock&) = delete;

  /// Ends the step (once) and returns its duration in ms.
  double stop();

 private:
  std::string name_;
  double start_us_;
  bool record_;
  double ms_ = 0.0;
  bool done_ = false;
};

/// Per-name totals over the recorded trace: count, summed duration and
/// summed self time (duration minus the part covered by child spans on
/// the same track), in ms.
struct SpanTotals {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const std::vector<gpucnn::obs::TraceEvent>& events);

/// Replays every (config, pass) of the tuner memo that `counts` names
/// through the engine the tuner chose, and adds the conv.* metrics per
/// operation: each key's replay time weighted by how often one operation
/// runs that shape. `counts` maps a forward config to its uses per
/// operation; `passes` lists the passes one operation runs;
/// conv.fwd.share is the forward replay's share of `forward_ms`.
void add_conv_replay_metrics(
    Result& r, const std::vector<std::pair<gpucnn::ConvConfig, int>>& counts,
    const std::vector<gpucnn::tune::Pass>& passes, double forward_ms);

/// Writes the Chrome trace and the full result (every metric plus notes)
/// under args.out_dir; returns the trace path ("" when not tracing).
std::string write_outputs(const Args& args, const Result& r);

/// Prints the final result line: {"correct", "attempted", "failed",
/// "metrics": {every metric}}.
void print_result(const Result& r);

/// Runs the machine calibration (core.calib.*), see calibrate.cpp.
void calibrate(Result& r);

int run_googlenet_b1(const Args& args, Result& r);
int run_googlenet_train(const Args& args, Result& r);
int run_lenet_int8_serve(const Args& args, Result& r);

}  // namespace perfbench
