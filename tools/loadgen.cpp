// Open-loop Poisson load generator for the inference serving runtime
// (docs/SERVING.md).
//
// Drives an InferenceServer with exponentially distributed arrivals on
// an absolute timeline — a submitter that falls behind bursts to catch
// up rather than silently thinning the offered load — and ramps the
// offered rate geometrically until the server saturates (achieved
// throughput < 90% of offered). Each ramp step reports exact
// p50/p95/p99 latency from the server's raw-sample recorder, then a
// batch-1 server is driven at the same saturated rate so the benefit of
// dynamic batching is a printed speedup, not an inference.
//
// Exports the BENCH_serving table (stem `serving`; schema in
// docs/METRICS.md) through the shared RunExporter and annotates the
// manifest with `serve`, which tools/validate_export.py uses to (a)
// require the table and (b) relax trace nesting on the overlapping
// serve:* request tracks. Exits non-zero if the server leaks requests
// (submitted != completed + rejected + failed, or a non-empty queue
// after drain) so CI can gate on the exit code alone.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "conv/registry.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "nn/activation_layer.hpp"
#include "nn/fc_layer.hpp"
#include "nn/model_spec.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/table.hpp"
#include "serve/server.hpp"

namespace {

using namespace gpucnn;
using obs::fmt;
using obs::Table;

struct LoadgenOptions {
  std::string model = "lenet5";
  /// FFT by default: its per-forward filter transform is paid once per
  /// batch, so it is the engine whose throughput benefits most from
  /// dynamic batching (and the batch-1 comparison uses the same engine,
  /// keeping the speedup apples-to-apples).
  std::string strategy = "fft";
  /// One worker by default: every forward already spreads across the
  /// process-wide ThreadPool, so extra workers buy only batch-assembly
  /// overlap and cost context switches on small machines.
  std::size_t workers = 1;
  std::size_t max_batch = 8;
  std::int64_t max_delay_us = 2000;
  double rate = 200.0;   // starting offered rate, requests/second
  double ramp = 2.0;     // rate multiplier per step
  std::size_t steps = 7; // ramp ceiling
  double step_ms = 500;  // arrival window per step
  std::uint64_t seed = 7;
  bool autotune = false;
  bool int8 = false;     // serve the int8 quantized inference path
  bool compare = true;   // run the batch-1 comparison server
  bool warmup = true;    // pre-measurement warm-up forwards in the server
  /// Gate on the packed-weight cache: after the batched run, require
  /// that prepacked GEMMs were hit and that no weight was re-packed
  /// during serving (blas.*.prepack_bytes flat once the server is up).
  bool assert_prepack = false;
};

void usage() {
  std::cerr <<
      "usage: loadgen [--json --csv --trace] [--out DIR] [options]\n"
      "  --model=NAME      lenet5 (default) or tiny (4x4 MLP smoke)\n"
      "  --strategy=NAME   conv engine: fft (default), unrolling, direct\n"
      "  --workers=N       worker threads / model instances (1)\n"
      "  --max-batch=N     dynamic batching size trigger (8)\n"
      "  --max-delay-us=N  oldest-request latency budget (2000)\n"
      "  --rate=R          starting offered rate, req/s (200)\n"
      "  --ramp=X          offered-rate multiplier per step (2.0)\n"
      "  --steps=N         maximum ramp steps (7)\n"
      "  --step-ms=N       arrival window per step, ms (500)\n"
      "  --seed=N          weight + arrival seed (7)\n"
      "  --autotune        per-batch-shape engine autotuning\n"
      "  --int8            serve the int8 quantized conv path\n"
      "  --no-compare      skip the batch-1 comparison run\n"
      "  --no-warmup       skip the server's pre-measurement warm-up\n"
      "  --assert-prepack  fail unless serving ran on prepacked weights\n"
      "                    with zero re-packing (needs a model with\n"
      "                    blocked-size GEMMs, e.g. lenet5 at max-batch 8)\n";
}

template <typename T>
bool parse_value(std::string_view text, T& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

/// True when `name` names a strategy (conv/registry.hpp) whose engine
/// runs every conv of LeNet-5, the model --strategy applies to.
bool runs_lenet(std::string_view name) {
  if (!conv::strategy_named(name)) return false;
  for (const auto& layer : nn::lenet5(1).layers) {
    if (layer.kind == nn::LayerSpec::Kind::kConv &&
        !conv::engine(name).supports(layer.conv)) {
      return false;
    }
  }
  return true;
}

bool parse_args(int argc, char** argv, LoadgenOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view{}
                                     : arg.substr(eq + 1);
    bool ok = true;
    if (key == "--model") {
      opt.model = std::string(value);
      ok = opt.model == "lenet5" || opt.model == "tiny";
    } else if (key == "--strategy") {
      opt.strategy = std::string(value);
      ok = runs_lenet(value);
    } else if (key == "--workers") {
      ok = parse_value(value, opt.workers) && opt.workers >= 1;
    } else if (key == "--max-batch") {
      ok = parse_value(value, opt.max_batch) && opt.max_batch >= 1;
    } else if (key == "--max-delay-us") {
      ok = parse_value(value, opt.max_delay_us) && opt.max_delay_us >= 0;
    } else if (key == "--rate") {
      ok = parse_value(value, opt.rate) && opt.rate > 0;
    } else if (key == "--ramp") {
      ok = parse_value(value, opt.ramp) && opt.ramp >= 1.0;
    } else if (key == "--steps") {
      ok = parse_value(value, opt.steps) && opt.steps >= 1;
    } else if (key == "--step-ms") {
      ok = parse_value(value, opt.step_ms) && opt.step_ms > 0;
    } else if (key == "--seed") {
      ok = parse_value(value, opt.seed);
    } else if (arg == "--autotune") {
      opt.autotune = true;
    } else if (arg == "--int8") {
      opt.int8 = true;
    } else if (arg == "--no-compare") {
      opt.compare = false;
    } else if (arg == "--no-warmup") {
      opt.warmup = false;
    } else if (arg == "--assert-prepack") {
      opt.assert_prepack = true;
    } else {
      std::cerr << "loadgen: unknown argument '" << arg << "'\n";
      ok = false;
    }
    if (!ok) {
      if (!value.empty() || eq != std::string_view::npos) {
        std::cerr << "loadgen: bad value for " << key << "\n";
      }
      usage();
      return false;
    }
  }
  return true;
}

/// A tiny FC head on 1x4x4 input: sub-millisecond forwards for CI smoke
/// runs where the LeNet-5 default would dominate the time budget.
nn::Network tiny_network() {
  nn::Network net;
  net.emplace<nn::FcLayer>("fc1", /*in=*/16, /*out=*/32);
  net.emplace<nn::ActivationLayer>("relu", nn::Activation::kRelu);
  net.emplace<nn::FcLayer>("fc2", /*in=*/32, /*out=*/10);
  return net;
}

struct ServedModel {
  std::function<nn::Network()> make;
  TensorShape input;  ///< per-request shape (n == 1)
};

ServedModel select_model(const std::string& name,
                         const std::string& strategy) {
  if (name == "tiny") {
    return {[] { return tiny_network(); }, TensorShape{1, 1, 4, 4}};
  }
  const conv::Strategy engine = *conv::strategy_named(strategy);
  const auto spec = nn::lenet5(1);
  const TensorShape in = spec.layers.front().input;
  return {[spec, engine] { return spec.instantiate(engine); },
          TensorShape{1, in.c, in.h, in.w}};
}

struct StepResult {
  std::string mode;  ///< "batched" ramp step or "batch1" comparison
  double offered_rps = 0.0;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  double achieved_rps = 0.0;
  /// The rate actually submitted during the arrival window. Differs
  /// from offered_rps by Poisson variance only, so the saturation test
  /// compares achieved against this instead of the nominal rate.
  double realized_rps = 0.0;
  serve::LatencySummary latency;

  [[nodiscard]] bool saturated() const {
    return achieved_rps < 0.9 * realized_rps;
  }
};

/// One open-loop window: Poisson arrivals at `rate_rps` for `window_ms`,
/// then a full drain. Latency percentiles cover exactly this window
/// (the recorder is drained before and after).
StepResult run_window(serve::InferenceServer& server, const Tensor& image,
                      double rate_rps, double window_ms, Rng& rng,
                      std::string mode) {
  // Drop samples from any previous window so percentiles cover exactly
  // this one.
  static_cast<void>(server.take_latencies_us());
  StepResult result;
  result.mode = std::move(mode);
  result.offered_rps = rate_rps;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Tensor>> responses;
  double arrival_us = 0.0;
  for (;;) {
    arrival_us += -std::log(1.0 - rng.uniform()) * 1e6 / rate_rps;
    if (arrival_us >= window_ms * 1000.0) break;
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(
                    static_cast<std::int64_t>(arrival_us)));
    responses.push_back(server.submit(image));
  }
  for (auto& response : responses) {
    response.get();
    ++result.completed;
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  result.submitted = static_cast<std::int64_t>(responses.size());
  result.achieved_rps =
      elapsed_s > 0 ? static_cast<double>(result.completed) / elapsed_s
                    : 0.0;
  result.realized_rps =
      static_cast<double>(result.submitted) / (window_ms / 1000.0);
  result.latency = serve::summarize_latencies(server.take_latencies_us());
  return result;
}

void print_step(const StepResult& r) {
  std::cout << "  " << r.mode << " @ " << fmt(r.offered_rps, 0)
            << " rps offered: achieved " << fmt(r.achieved_rps, 0)
            << " rps (" << r.completed << "/" << r.submitted
            << "), p50 " << fmt(r.latency.p50_us / 1000.0, 2)
            << " ms, p99 " << fmt(r.latency.p99_us / 1000.0, 2)
            << " ms\n";
}

/// Requests must be conserved: everything submitted is completed,
/// rejected or failed, and the queue is empty after a drain.
bool queue_leaked(const serve::ServerStats& s, const char* label) {
  const std::int64_t accounted = s.completed + s.rejected + s.failed;
  if (s.submitted != accounted || s.queue_depth != 0) {
    std::cerr << "loadgen: " << label << " server leaked requests: "
              << s.submitted << " submitted vs " << accounted
              << " accounted, queue depth " << s.queue_depth << "\n";
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  auto export_opts = obs::ExportOptions::parse(argc, argv);
  LoadgenOptions opt;
  if (!parse_args(argc, argv, opt)) return 2;

  obs::RunExporter exporter(export_opts, "loadgen");
  exporter.annotate("serve", "loadgen");
  exporter.annotate("model", opt.model);
  exporter.annotate("workers", std::to_string(opt.workers));
  exporter.annotate("max_batch", std::to_string(opt.max_batch));
  exporter.annotate("max_delay_us", std::to_string(opt.max_delay_us));

  exporter.annotate("strategy", opt.strategy);
  const ServedModel model = select_model(opt.model, opt.strategy);
  serve::ServerOptions server_opts;
  server_opts.workers = opt.workers;
  server_opts.batch = {opt.max_batch, opt.max_delay_us};
  server_opts.input = model.input;
  server_opts.seed = opt.seed;
  server_opts.autotune = opt.autotune;
  server_opts.int8 = opt.int8;
  server_opts.warmup = opt.warmup;
  exporter.annotate("int8", opt.int8 ? "1" : "0");
  exporter.annotate("warmup", opt.warmup ? "1" : "0");

  Rng rng(opt.seed ^ 0x10adbeefULL);
  Tensor image(1, model.input.c, model.input.h, model.input.w);
  image.fill_uniform(rng, 0.0F, 1.0F);

  std::cout << "Serving " << opt.model << " ("
            << (opt.model == "tiny" ? "fc" : opt.strategy)
            << (opt.int8 ? " engine, int8" : " engine") << ") with "
            << opt.workers
            << " workers, max_batch " << opt.max_batch << ", max delay "
            << opt.max_delay_us << " us; Poisson ramp x" << opt.ramp
            << " from " << fmt(opt.rate, 0) << " rps ("
            << fmt(opt.step_ms, 0) << " ms windows).\n";

  std::vector<StepResult> results;
  bool leaked = false;
  bool prepack_failed = false;
  double saturated_rate = opt.rate;
  double batched_peak_rps = 0.0;
  {
    auto& metrics = obs::metrics();
    auto& sgemm_hits = metrics.counter("blas.sgemm.prepack_hits");
    const std::int64_t hits_before = sgemm_hits.value();
    serve::InferenceServer server(model.make, server_opts);
    // Construction is done: weights are packed (prototype freeze) and
    // the warm-up forwards have run. From here on prepack_bytes must not
    // move — serving re-packs no weights.
    auto& sgemm_pack_bytes = metrics.counter("blas.sgemm.prepack_bytes");
    auto& igemm_pack_bytes = metrics.counter("blas.igemm.prepack_bytes");
    const std::int64_t pack_bytes_before =
        sgemm_pack_bytes.value() + igemm_pack_bytes.value();
    double rate = opt.rate;
    for (std::size_t step = 0; step < opt.steps; ++step) {
      StepResult r =
          run_window(server, image, rate, opt.step_ms, rng, "batched");
      print_step(r);
      batched_peak_rps = std::max(batched_peak_rps, r.achieved_rps);
      saturated_rate = rate;
      results.push_back(std::move(r));
      if (results.back().saturated()) {
        std::cout << "  saturated: achieved < 90% of the realized "
                     "offered rate\n";
        break;
      }
      rate *= opt.ramp;
    }
    server.shutdown();
    const auto stats = server.stats();
    std::cout << "batched server: " << stats.batches << " batches, mean "
              << fmt(stats.mean_batch, 2) << ", max "
              << stats.max_batch_observed << "\n";
    leaked = queue_leaked(stats, "batched") || leaked;

    if (opt.assert_prepack) {
      const std::int64_t hits =
          sgemm_hits.value() - hits_before;
      const std::int64_t repacked = sgemm_pack_bytes.value() +
                                    igemm_pack_bytes.value() -
                                    pack_bytes_before;
      std::cout << "prepack: " << hits
                << " prepacked GEMM hits, " << repacked
                << " weight bytes re-packed after startup\n";
      if (hits <= 0) {
        std::cerr << "loadgen: --assert-prepack: no GEMM consumed the "
                     "packed-weight cache\n";
        prepack_failed = true;
      }
      if (repacked != 0) {
        std::cerr << "loadgen: --assert-prepack: weights were re-packed "
                     "while serving\n";
        prepack_failed = true;
      }
    }
  }

  double batch1_rps = 0.0;
  if (opt.compare) {
    // Same model and workers, batching disabled: every request is its
    // own forward. Driven at the batched server's saturated offered
    // rate so the two achieved throughputs are directly comparable.
    serve::ServerOptions single = server_opts;
    single.batch = {1, 0};
    serve::InferenceServer server(model.make, single);
    StepResult r = run_window(server, image, saturated_rate, opt.step_ms,
                              rng, "batch1");
    print_step(r);
    batch1_rps = r.achieved_rps;
    results.push_back(std::move(r));
    server.shutdown();
    leaked = queue_leaked(server.stats(), "batch1") || leaked;

    if (batch1_rps > 0) {
      std::cout << "dynamic batching speedup at saturation: "
                << fmt(batched_peak_rps / batch1_rps, 2) << "x ("
                << fmt(batched_peak_rps, 0) << " vs "
                << fmt(batch1_rps, 0) << " rps)\n";
    }
  }

  Table table("BENCH_serving: open-loop Poisson ramp to saturation");
  table.header({"mode", "offered (rps)", "submitted", "completed",
                "achieved (rps)", "p50 (ms)", "p95 (ms)", "p99 (ms)"});
  for (const StepResult& r : results) {
    table.row({r.mode, fmt(r.offered_rps, 1), std::to_string(r.submitted),
               std::to_string(r.completed), fmt(r.achieved_rps, 1),
               fmt(r.latency.p50_us / 1000.0, 3),
               fmt(r.latency.p95_us / 1000.0, 3),
               fmt(r.latency.p99_us / 1000.0, 3)});
  }
  table.print(std::cout);
  obs::export_table(exporter, table, "serving");

  if (leaked) return 1;
  std::cout << "request accounting clean: no queue leak\n";
  if (prepack_failed) return 1;
  return 0;
}
