#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

#include "conv/conv_engine.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace gpucnn;

void Result::fail(const std::string& what) {
  correct = false;
  const std::string key = "failure." + std::to_string(notes.size());
  notes[key] = what;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

std::string format_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0); harmless if
  // refused, the peak then simply includes the calibration buffers.
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::pair<double, double> host_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq
                // softirq steal ...
  double total = 0.0;
  double steal = 0.0;
  double v = 0.0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

namespace {

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "core.parallel_for.calls",    "core.parallel_for.chunks_caller",
      "core.parallel_for.chunks_worker", "core.workspace.misses",
      "core.workspace.alloc_bytes", "blas.sgemm.bytes_packed_a",
      "blas.sgemm.bytes_packed_b",  "blas.sgemm.prepack_hits",
      "blas.sgemm.epilogue_calls",  "blas.igemm.calls",
      "blas.igemm.prepack_hits",    "conv.winograd.fallbacks",
      "fft.plan_cache.misses",      "quant.acts.tensors",
      "quant.acts.clipped",         "serve.batches",
      "serve.requests.submitted",
  };
  return names;
}

/// Per-op metric name for each counter that is reported per operation.
const std::vector<std::pair<std::string, std::string>>& per_op_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"core.parallel_for.calls", "core.parallel_for.calls_per_op"},
      {"core.workspace.misses", "core.workspace.misses_per_op"},
      {"core.workspace.alloc_bytes", "core.workspace.alloc_bytes_per_op"},
      {"blas.sgemm.bytes_packed_a", "blas.sgemm.packed_a_bytes_per_op"},
      {"blas.sgemm.bytes_packed_b", "blas.sgemm.packed_b_bytes_per_op"},
      {"blas.sgemm.prepack_hits", "blas.sgemm.prepack_hits_per_op"},
      {"blas.sgemm.epilogue_calls", "blas.sgemm.epilogue_calls_per_op"},
      {"blas.igemm.calls", "blas.igemm.calls_per_op"},
      {"blas.igemm.prepack_hits", "blas.igemm.prepack_hits_per_op"},
      {"conv.winograd.fallbacks", "conv.winograd.fallbacks_per_op"},
      {"fft.plan_cache.misses", "fft.plan_cache.misses_per_op"},
      {"quant.acts.tensors", "quant.acts.tensors_per_op"},
  };
  return m;
}

std::string unit_of(const std::string& metric) {
  return metric.find("bytes") != std::string::npos ? "B/op" : "count/op";
}

}  // namespace

Counts snapshot_counters() {
  Counts c;
  for (const auto& name : counter_names()) {
    c[name] = obs::metrics().counter(name).value();
  }
  return c;
}

void add_count_metrics(Result& r, const Counts& start, const Counts& mid,
                       const Counts& end, double ops_first_half,
                       double ops_second_half) {
  const auto all = per_op(start, end, ops_first_half + ops_second_half);
  const auto first = per_op(start, mid, ops_first_half);
  const auto second = per_op(mid, end, ops_second_half);
  std::string exact;
  std::string varying;
  auto append = [](std::string& list, const std::string& name) {
    list += (list.empty() ? "" : ",") + name;
  };
  for (const auto& [counter, metric] : per_op_metrics()) {
    r.add(metric, all.at(counter), unit_of(metric));
    append(first.at(counter) == second.at(counter) ? exact : varying, metric);
  }
  const double caller = static_cast<double>(
      end.at("core.parallel_for.chunks_caller") -
      start.at("core.parallel_for.chunks_caller"));
  const double worker = static_cast<double>(
      end.at("core.parallel_for.chunks_worker") -
      start.at("core.parallel_for.chunks_worker"));
  r.add("core.parallel_for.worker_chunk_share", share(worker, caller + worker),
        "share");
  r.notes["counts.exact_between_halves"] = exact;
  r.notes["counts.varying_between_halves"] = varying;
}

void add_tune_metrics(Result& r) {
  auto& m = obs::metrics();
  const double hits = static_cast<double>(m.counter("tune.hits").value());
  const double misses = static_cast<double>(m.counter("tune.misses").value());
  r.add("tune.ms_spent", m.gauge("tune.ms_spent").value(), "ms");
  r.add("tune.trials",
        static_cast<double>(m.counter("tune.trials").value()), "count");
  r.add("tune.misses", misses, "count");
  r.add("tune.hit_share", share(hits, hits + misses), "share");
}

SetupClock::SetupClock(std::string name, bool record)
    : name_(std::move(name)),
      start_us_(obs::tracer().now_us()),
      record_(record) {}

double SetupClock::stop() {
  if (!done_) {
    done_ = true;
    ms_ = (obs::tracer().now_us() - start_us_) / 1000.0;
    auto& t = obs::tracer();
    if (record_) {
      // complete_event drops events while the tracer is off; set-up runs
      // on this thread alone, so switching it on for one call records
      // nothing else.
      const bool was_on = t.enabled();
      t.enable(true);
      t.complete_event(t.virtual_track("bench:setup"), name_, "bench.setup",
                       start_us_, ms_ * 1000.0);
      t.enable(was_on);
    }
  }
  return ms_;
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<obs::TraceEvent>& events) {
  // Spans on one thread track nest (RAII, LIFO); request/queue events on
  // the serve:requests virtual track overlap freely and have no children.
  auto base_name = [](const std::string& n) {
    return n.substr(0, n.find('['));
  };
  std::map<std::uint32_t, std::vector<const obs::TraceEvent*>> by_track;
  std::map<std::string, SpanTotals> totals;
  for (const auto& e : events) {
    auto& t = totals[base_name(e.name)];
    ++t.count;
    t.total_ms += e.duration_us / 1000.0;
    if (e.category.find('.') != std::string::npos) {
      t.self_ms += e.duration_us / 1000.0;  // virtual-track event
    } else {
      by_track[e.track].push_back(&e);
    }
  }
  for (auto& [track, list] : by_track) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_us != b->start_us ? a->start_us < b->start_us
                                        : a->duration_us > b->duration_us;
    });
    // Stack of open spans with the child time each has accumulated.
    std::vector<std::pair<const obs::TraceEvent*, double>> open;
    auto close = [&](std::size_t keep) {
      while (open.size() > keep) {
        const auto [e, child_us] = open.back();
        open.pop_back();
        totals[base_name(e->name)].self_ms +=
            std::max(0.0, e->duration_us - child_us) / 1000.0;
        if (!open.empty()) open.back().second += e->duration_us;
      }
    };
    for (const auto* e : list) {
      std::size_t keep = open.size();
      while (keep > 0 && open[keep - 1].first->start_us +
                                 open[keep - 1].first->duration_us <=
                             e->start_us) {
        --keep;
      }
      close(keep);
      open.emplace_back(e, 0.0);
    }
    close(0);
  }
  return totals;
}

namespace {

/// Every conv engine name a tuner decision can carry: each gets a
/// conv.engine.<name>.ms metric, 0 when the tuner never chose it.
constexpr std::string_view kEngineNames[] = {
    "direct",    "unrolling",      "fft",           "fft-complex",
    "fft-tiled", "winograd",       "winograd-f4",   "implicit-gemm",
    "depthwise", "unrolling-int8", "implicit-int8",
};

std::string pass_key(tune::Pass p) {
  switch (p) {
    case tune::Pass::kForward: return "fwd";
    case tune::Pass::kBackwardData: return "bwd_data";
    case tune::Pass::kBackwardFilter: return "bwd_filter";
  }
  return "?";
}

/// Median wall time in ms of one pass of `engine` on `cfg`, after one
/// warm-up run.
double replay_ms(const conv::ConvEngine& engine, const ConvConfig& cfg,
                 tune::Pass pass, Rng& rng) {
  Tensor input(cfg.input_shape());
  Tensor filters(cfg.filter_shape());
  Tensor output(cfg.output_shape());
  input.fill_uniform(rng);
  filters.fill_uniform(rng);
  output.fill_uniform(rng);
  auto run = [&] {
    switch (pass) {
      case tune::Pass::kForward:
        engine.forward(cfg, input, filters, output);
        break;
      case tune::Pass::kBackwardData:
        engine.backward_data(cfg, output, filters, input);
        break;
      case tune::Pass::kBackwardFilter:
        engine.backward_filter(cfg, input, output, filters);
        break;
    }
  };
  run();
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    run();
    ms.push_back((now_s() - t0) * 1000.0);
  }
  return median(ms);
}

}  // namespace

void add_conv_replay_metrics(
    Result& r, const std::vector<std::pair<ConvConfig, int>>& counts,
    const std::vector<tune::Pass>& passes, double forward_ms) {
  std::map<std::string, double> engine_ms;
  for (const auto name : kEngineNames) engine_ms[std::string(name)] = 0.0;
  Rng rng(5);
  int unmatched = 0;
  double fwd_ms = 0.0;
  const auto entries = tune::Autotuner::instance().entries();
  for (const tune::Pass pass : {tune::Pass::kForward,
                                tune::Pass::kBackwardData,
                                tune::Pass::kBackwardFilter}) {
    const bool runs =
        std::find(passes.begin(), passes.end(), pass) != passes.end();
    double ms = 0.0;
    double flop = 0.0;
    double bytes = 0.0;
    for (const auto& [cfg, uses] : counts) {
      if (!runs) break;
      const auto it = std::find_if(
          entries.begin(), entries.end(), [&, &c = cfg](const auto& e) {
            return e.pass == pass && e.dtype == tune::Dtype::kF32 &&
                   e.config == c;
          });
      if (it == entries.end() || it->decision.engine == nullptr) {
        ++unmatched;
        continue;
      }
      const double t = replay_ms(*it->decision.engine, cfg, pass, rng);
      ms += t * uses;
      engine_ms[std::string(it->decision.engine_name)] += t * uses;
      flop += cfg.forward_flops() * uses;
      // Computed traffic: each operand read or written once, fp32.
      bytes += 4.0 *
               static_cast<double>(cfg.input_shape().count() +
                                   cfg.filter_shape().count() +
                                   cfg.output_shape().count()) *
               uses;
    }
    const std::string p = "conv." + pass_key(pass);
    r.add(p + ".ms", ms, "ms/op");
    r.add(p + ".gflop", flop / 1e9, "GFLOP/op");
    r.add(p + ".computed_mb", bytes / 1e6, "MB/op");
    r.add(p + ".gflops", ms > 0.0 ? flop / 1e6 / ms : 0.0, "GFLOP/s");
    if (pass == tune::Pass::kForward) fwd_ms = ms;
  }
  r.add("conv.fwd.share", share(fwd_ms, forward_ms), "share");
  for (const auto& [name, ms] : engine_ms) {
    r.add("conv.engine." + name + ".ms", ms, "ms/op");
  }
  r.notes["conv.replay.unmatched_keys"] = std::to_string(unmatched);
  if (unmatched > 0) {
    std::cerr << "perfbench: " << unmatched
              << " conv keys had no tuner decision to replay\n";
  }
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string result_json(const Result& r, bool with_notes) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    os << (i ? ", " : "") << json_string(name) << ": {\"value\": "
       << json_number(vu.first) << ", \"unit\": " << json_string(vu.second)
       << "}";
  }
  os << "}";
  if (with_notes) {
    os << ", \"notes\": {";
    std::size_t i = 0;
    for (const auto& [k, v] : r.notes) {
      os << (i++ ? ", " : "") << json_string(k) << ": " << json_string(v);
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace

std::string write_outputs(const Args& args, const Result& r) {
  namespace fs = std::filesystem;
  fs::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload;
  std::ofstream(stem + "-seed" + std::to_string(args.seed) +
                (args.trace ? "-trace" : "") + ".json")
      << result_json(r, true) << "\n";
  if (!args.trace) return "";
  // One trace per workload, the latest: traces run to tens of MB.
  const std::string trace_path = stem + ".trace.json";
  std::ofstream trace(trace_path);
  obs::tracer().write_chrome_json(trace);
  return trace_path;
}

void print_result(const Result& r) {
  std::cout << result_json(r, false) << std::endl;
}

}  // namespace perfbench
