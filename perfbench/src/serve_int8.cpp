// lenet-int8-serve: an open loop of Poisson arrivals from one generator
// thread into an int8 LeNet-5 InferenceServer with one worker and the
// default batch policy. Phases: a low fixed rate, a high fixed rate, and
// a search for the highest rate that meets the latency limit without a
// growing backlog. Every request is timed from when it was due.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "nn/model_spec.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace gpucnn;

namespace {

constexpr double kLowRate = 400.0;
constexpr double kHighRate = 1000.0;
/// Offered rate of the saturation phase: far above what one worker
/// serves, so the queue never empties and completions measure capacity.
constexpr double kSaturationRate = 3000.0;
constexpr double kLimitMs = 20.0;  // p99 latency limit of the search
constexpr double kSearchHi = 3000.0;
constexpr int kSearchSteps = 4;
/// A missed search step is probed once more before it counts: a single
/// host stall of a few tens of ms is enough to push one probe's p99
/// over the limit.
constexpr int kSearchRetries = 1;
constexpr std::size_t kPool = 64;
/// The low phase's end-to-end p50 is the median over this many
/// consecutive windows (stats.hpp: windowed_percentile).
constexpr std::size_t kWindows = 5;
/// Batched and batch-1 answers of the same image may round differently
/// in the fp32 classifier; anything beyond this is a wrong answer.
constexpr float kAnswerTolerance = 1e-5F;
/// Responses not back this long after the last send count as unanswered.
constexpr double kDrainTimeoutS = 10.0;

struct Phase {
  std::int64_t sent = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;  ///< of the failed: answered, but wrongly
  std::vector<double> latency_ms;  ///< due -> response, answered requests
  std::vector<double> late_ms;     ///< generator lateness per send
  bool backlog_growing = false;
  std::int64_t backlog_mid = 0;  ///< outstanding at the half-way send
  std::int64_t backlog_end = 0;  ///< outstanding at the last send
  double offered_rate = 0.0;  ///< arrivals / schedule span, as drawn
  /// Right answers per second over the last 80% of the send window (the
  /// first 20% lets a saturation backlog build up).
  double completion_rate = 0.0;

  /// p99 with every failed request counted as missing the limit.
  [[nodiscard]] double p99_with_failures() const {
    std::vector<double> v = latency_ms;
    v.insert(v.end(), static_cast<std::size_t>(failed), INFINITY);
    return percentile(std::move(v), 99);
  }
  [[nodiscard]] bool meets_limit() const {
    return failed == 0 && !backlog_growing && p99_with_failures() <= kLimitMs;
  }
  void merge(const Phase& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    failed += o.failed;
    wrong += o.wrong;
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
  }
};

struct Served {
  std::vector<Tensor> images;
  std::vector<std::vector<float>> answers;  ///< reference per image
};

/// One open-loop phase: `count` Poisson arrivals at `rate` drawn from
/// `seed`. The generator (this thread) submits on the absolute
/// schedule; a collector thread waits for the responses in submission
/// order (one worker serves FIFO) and checks each against its answer.
/// Returns once every response is in or given up, so the next phase
/// starts with an empty queue.
Phase run_phase(serve::InferenceServer& server, const Served& s,
                std::uint64_t seed, double rate, std::size_t count) {
  const auto due = poisson_schedule(seed, rate, 0.0, count);
  std::vector<std::optional<std::future<Tensor>>> futures(count);
  std::vector<double> done_s(count, 0.0);
  // 1 right answer, 0 no answer (refused, threw, or not back in time),
  // -1 wrong answer.
  std::vector<std::int8_t> ok(count, 0);
  std::mutex mutex;
  std::condition_variable published_cv;
  std::size_t published = 0;  // guarded by mutex
  std::atomic<std::size_t> completed{0};

  const double origin = now_s() + 0.005;
  double drain_deadline = INFINITY;  // guarded by mutex once sending ends

  std::thread collector([&] {
    for (std::size_t i = 0; i < count; ++i) {
      {
        std::unique_lock lock(mutex);
        published_cv.wait(lock, [&] { return published > i; });
      }
      auto& f = futures[i];
      try {
        // Wait in slices: once sending has ended, a response not back
        // by the drain deadline counts as unanswered.
        while (f.has_value() &&
               f->wait_for(std::chrono::milliseconds(50)) !=
                   std::future_status::ready) {
          const std::scoped_lock lock(mutex);
          if (now_s() > drain_deadline) f.reset();
        }
        if (f.has_value()) {
          const Tensor out = f->get();
          done_s[i] = now_s();
          const auto& want = s.answers[i % s.images.size()];
          const auto got = out.data();
          bool same = got.size() == want.size();
          for (std::size_t c = 0; same && c < got.size(); ++c) {
            same = std::fabs(got[c] - want[c]) <= kAnswerTolerance;
          }
          ok[i] = same ? 1 : -1;
        }
      } catch (...) {
        ok[i] = 0;  // the batch threw: a failed request
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Phase p;
  p.late_ms.reserve(count);
  p.offered_rate = static_cast<double>(count) / due.back();
  std::int64_t backlog_mid = -1;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const double when = origin + due[i];
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(when))));
      const double sent_at = now_s();
      p.late_ms.push_back(std::max(0.0, sent_at - when) * 1000.0);
      std::optional<std::future<Tensor>> f;
      try {
        obs::Span span(obs::tracer(), "serve.submit", "bench");
        f.emplace(server.submit(s.images[i % s.images.size()]));
        ++p.sent;
      } catch (const std::exception&) {
        // Refused: stays empty and counts as failed.
      }
      {
        const std::scoped_lock lock(mutex);
        futures[i] = std::move(f);
        published = i + 1;
      }
      published_cv.notify_one();
      if (i + 1 == count / 2) {
        backlog_mid = static_cast<std::int64_t>(i + 1) -
                      static_cast<std::int64_t>(completed.load());
      }
    }
  } catch (...) {
    // Unsent requests stay empty (failed); the collector must still be
    // joined before its captures go out of scope.
    {
      const std::scoped_lock lock(mutex);
      published = count;
      drain_deadline = now_s();
    }
    published_cv.notify_one();
    collector.join();
    throw;
  }
  const std::int64_t backlog_end =
      static_cast<std::int64_t>(count) -
      static_cast<std::int64_t>(completed.load());
  {
    const std::scoped_lock lock(mutex);
    drain_deadline = now_s() + kDrainTimeoutS;
  }
  collector.join();

  // Growing backlog: more outstanding at the last send than half-way,
  // by more than one full batch.
  const auto max_batch =
      static_cast<std::int64_t>(server.options().batch.max_batch);
  p.backlog_mid = backlog_mid;
  p.backlog_end = backlog_end;
  p.backlog_growing = backlog_end > std::max<std::int64_t>(backlog_mid, 0) +
                                        max_batch;
  const double from = origin + 0.2 * due.back();
  const double to = origin + due.back();
  const auto in_window = std::count_if(
      done_s.begin(), done_s.end(),
      [&](double t) { return t >= from && t <= to; });
  p.completion_rate = static_cast<double>(in_window) / (to - from);
  for (std::size_t i = 0; i < count; ++i) {
    if (ok[i] == 1) {
      ++p.succeeded;
      p.latency_ms.push_back((done_s[i] - (origin + due[i])) * 1000.0);
    } else {
      ++p.failed;
      p.wrong += ok[i] == -1 ? 1 : 0;
    }
  }
  return p;
}

std::unique_ptr<serve::InferenceServer> make_server(std::uint64_t seed) {
  const auto spec = nn::lenet5(1);
  serve::ServerOptions options;
  options.workers = 1;
  options.int8 = true;
  options.seed = seed;
  options.input = {1, spec.layers.front().input.c,
                   spec.layers.front().input.h, spec.layers.front().input.w};
  return std::make_unique<serve::InferenceServer>(
      [spec] { return spec.instantiate(); }, options);
}

/// Elements quantized per request: the inputs of the int8 conv layers.
double quantized_elements_per_image() {
  double n = 0.0;
  for (const auto& layer : nn::lenet5(1).layers) {
    if (layer.kind == nn::LayerSpec::Kind::kConv) {
      n += static_cast<double>(layer.input.count());
    }
  }
  return n;
}

}  // namespace

int run_lenet_int8_serve(const Args& args, Result& r) {
  constexpr int kSetups = 21;
  const auto spec = nn::lenet5(1);
  Served s;
  Rng rng(args.seed);
  for (std::size_t i = 0; i < kPool; ++i) {
    Tensor img(1, spec.layers.front().input.c, spec.layers.front().input.h,
               spec.layers.front().input.w);
    img.fill_uniform(rng, -1.0F, 1.0F);  // the calibration distribution
    s.images.push_back(std::move(img));
  }
  tune::Autotuner::instance().set_mode(tune::Mode::kOff);

  // Set-up: build, quantize, calibrate, freeze and warm the server. It
  // is cheap, so it runs kSetups times and the median counts. The first
  // server is the one measured; the other set-ups run after the window,
  // so their garbage does not count towards its memory.
  auto timed_setup = [&](std::vector<double>& setups) {
    SetupClock clock("setup.server", args.trace);
    auto server = make_server(args.seed);
    setups.push_back(clock.stop() / 1000.0);
    return server;
  };
  std::vector<double> setups;
  const std::int64_t w0 =
      obs::metrics().counter("serve.warmup.forwards").value();
  auto server = timed_setup(setups);
  const std::int64_t warmup_forwards =
      obs::metrics().counter("serve.warmup.forwards").value() - w0;

  // Reference answers, outside the timed window: each image alone
  // through the server (batch 1), cross-checked against the fp32
  // prototype so a broken int8 path cannot become its own reference.
  std::size_t agree = 0;
  {
    nn::Network fp32 = spec.instantiate();
    fp32.set_training(false);
    fp32.fuse_conv_relu();
    fp32.share_parameters(server->prototype());
    for (const auto& img : s.images) {
      const Tensor out = server->submit(img).get();
      s.answers.emplace_back(out.data().begin(), out.data().end());
      const auto want = fp32.forward(img).data();
      const auto got = out.data();
      agree += std::max_element(want.begin(), want.end()) - want.begin() ==
               std::max_element(got.begin(), got.end()) - got.begin();
    }
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(kPool);
  r.notes["check.int8_fp32_top1_agreement"] = format_g(agreement);
  if (agreement < 0.9) r.fail("int8 answers disagree with fp32 top-1");

  // Phase lengths follow --seconds: 40% low, 15% high, 10% saturation,
  // 35% search.
  const double S = args.seconds;
  const auto count_for = [](double rate, double seconds) {
    return static_cast<std::size_t>(std::max(1.0, rate * seconds));
  };
  const Counts c0 = snapshot_counters();
  const double q0 = obs::metrics().counter("quant.acts.clipped").value();
  Phase low_untraced;
  if (args.trace) {
    // Untraced twin of the low phase: the tracing overhead baseline.
    low_untraced = run_phase(*server, s, args.seed * 3 + 1, kLowRate,
                             count_for(kLowRate, 0.2 * S));
    obs::tracer().enable(true);
  }
  Phase low = run_phase(*server, s, args.seed * 3 + 1, kLowRate,
                        count_for(kLowRate, (args.trace ? 0.2 : 0.4) * S));
  Phase high = run_phase(*server, s, args.seed * 3 + 2, kHighRate,
                         count_for(kHighRate, 0.15 * S));
  const Counts c_mid = snapshot_counters();
  // Queue and compute percentiles come from the fixed-rate phases only;
  // the overloaded phases that follow would report their own backlog.
  const auto fixed_rate_events = obs::tracer().events();
  // Peak memory, likewise before the overloaded phases: their backlog's
  // size is set by how far each overshoots.
  r.add("rss_peak_mb", peak_rss_mb(), "MB");
  // Capacity: completions per second while the queue never empties.
  Phase saturation = run_phase(*server, s, args.seed * 3 + 3, kSaturationRate,
                               count_for(kSaturationRate, 0.1 * S));
  const double ops_first = static_cast<double>(
      c_mid.at("serve.requests.submitted") - c0.at("serve.requests.submitted"));

  // Geometric bisection between a rate assumed to meet the limit and
  // one that does not; every probe offers the same duration of load.
  Phase search;
  // The bracket starts at the highest fixed rate that met the limit. On
  // a host so busy that even the low rate misses, it starts lower, and
  // the result stays 0 unless a probe meets the limit.
  double lo = high.meets_limit() ? kHighRate
              : low.meets_limit() ? kLowRate
                                  : kLowRate / 4;
  double hi = kSearchHi;
  // The result is the rate the best passing phase actually offered (its
  // Poisson draw), not the nominal bisection point.
  double max_rps = high.meets_limit() ? high.offered_rate
                   : low.meets_limit() ? low.offered_rate
                                       : 0.0;
  const double probe_s = 0.35 * S / (kSearchSteps + kSearchRetries);
  int retries = kSearchRetries;
  std::uint64_t probe_seed = args.seed * 3 + 10;
  std::string probes;
  for (int k = 0; k < kSearchSteps; ++k) {
    const double rate = std::sqrt(lo * hi);
    bool ok = false;
    for (int attempt = 0; attempt == 0 || (!ok && retries-- > 0); ++attempt) {
      const Phase probe = run_phase(*server, s, probe_seed++, rate,
                                    count_for(rate, probe_s));
      search.merge(probe);
      ok = probe.meets_limit();
      if (ok) max_rps = std::max(max_rps, probe.offered_rate);
      probes += (probes.empty() ? "" : ",") + format_g(rate) +
                (ok ? ":ok" : ":miss") + "(p99 " +
                format_g(probe.p99_with_failures()) + ", backlog " +
                std::to_string(probe.backlog_mid) + "->" +
                std::to_string(probe.backlog_end) + ")";
    }
    (ok ? lo : hi) = rate;
  }
  obs::tracer().enable(false);
  const Counts c1 = snapshot_counters();
  r.notes["search.probes"] = probes;
  server.reset();
  for (int k = 1; k < kSetups; ++k) (void)timed_setup(setups);
  r.add("setup_s", median(setups), "s");

  Phase all;
  all.merge(low);
  all.merge(high);
  all.merge(saturation);
  all.merge(search);
  all.merge(low_untraced);
  r.attempted = static_cast<std::int64_t>(all.late_ms.size());
  r.failed = all.failed;
  if (all.wrong > 0) {
    r.fail(std::to_string(all.wrong) + " responses differ from the reference");
  }

  r.add("success_share",
        static_cast<double>(r.attempted - r.failed) /
            static_cast<double>(r.attempted),
        "share");
  r.add("p50_ms", windowed_percentile(low.latency_ms, 50, kWindows), "ms");
  for (const double q : {50.0, 90.0, 95.0, 99.0}) {
    r.notes["low_ms.p" + format_g(q)] = format_g(percentile(low.latency_ms, q));
  }

  if (args.trace) {
    const double ops_all = static_cast<double>(
        c1.at("serve.requests.submitted") - c0.at("serve.requests.submitted"));
    add_count_metrics(r, c0, c_mid, c1, ops_first, ops_all - ops_first);
    add_tune_metrics(r);
    const double clipped =
        obs::metrics().counter("quant.acts.clipped").value() - q0;
    r.add("quant.acts.clipped_share",
          share(clipped, ops_all * quantized_elements_per_image()), "share");

    std::vector<double> wait_us;
    std::vector<double> compute_us;
    for (const auto& e : fixed_rate_events) {
      if (e.name == "queue") wait_us.push_back(e.duration_us);
      if (e.name == "serve.forward") compute_us.push_back(e.duration_us);
    }
    r.add("serve.queue.wait_p50_us", percentile(wait_us, 50), "us");
    r.add("serve.queue.wait_p99_us", percentile(wait_us, 99), "us");
    r.add("serve.compute_p50_us", percentile(compute_us, 50), "us");
    r.add("serve.batch.mean",
          share(ops_all, static_cast<double>(c1.at("serve.batches") -
                                             c0.at("serve.batches"))),
          "count");
    r.add("serve.warmup.forwards", static_cast<double>(warmup_forwards),
          "count");
    r.add("serve.gen.late_p99_ms", percentile(all.late_ms, 99), "ms");
    r.add("serve.gen.late_max_ms", percentile(all.late_ms, 100), "ms");
    for (const auto& [name, ph] :
         {std::pair<const char*, const Phase*>{"low", &low},
          {"high", &high},
          {"search", &search}}) {
      const std::string p = std::string("serve.") + name;
      r.add(p + ".sent", static_cast<double>(ph->sent), "count");
      r.add(p + ".succeeded", static_cast<double>(ph->succeeded), "count");
      r.add(p + ".failed", static_cast<double>(ph->failed), "count");
    }
    r.add("serve.low.p50_ms", percentile(low.latency_ms, 50), "ms");
    r.add("serve.low.p90_ms", percentile(low.latency_ms, 90), "ms");
    r.add("serve.low.p99_ms", percentile(low.latency_ms, 99), "ms");
    r.add("serve.max_rps", max_rps, "1/s");
    r.add("serve.saturation_rps", saturation.completion_rate, "1/s");
    r.add("serve.high.p50_ms", percentile(high.latency_ms, 50), "ms");
    r.add("serve.high.p99_ms", percentile(high.latency_ms, 99), "ms");
    const double base = percentile(low_untraced.latency_ms, 50);
    r.add("obs.tracing_overhead_pct",
          100.0 * share(percentile(low.latency_ms, 50) - base, base), "%");
    const auto totals = span_totals(obs::tracer().events());
    for (const auto& [name, t] : totals) {
      r.notes["self_ms." + name] = format_g(t.self_ms) + " of " +
                                   format_g(t.total_ms) + " over " +
                                   std::to_string(t.count);
    }
    // Layers this workload does not run: the nn step split, the conv
    // replay (no tuner memo) and the planner.
    for (const char* name : {"nn.forward_ms", "nn.backward_ms", "nn.sgd_ms",
                             "nn.freeze_ms"}) {
      r.add(name, 0.0, "ms");
    }
    r.add("nn.first_forward_s", 0.0, "s");
    r.add("nn.forward.p90_ms", 0.0, "ms");
    r.add("nn.step.p90_ms", 0.0, "ms");
    r.add("nn.plan.peak_bytes", 0.0, "B");
    add_conv_replay_metrics(r, {}, {}, 1.0);
  }
  return 0;
}

}  // namespace perfbench
