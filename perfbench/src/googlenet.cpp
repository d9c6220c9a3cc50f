// The two GoogLeNet workloads: batch-1 frozen inference with measured
// autotuning (googlenet-b1) and batch-4 training with heuristic tuning
// (googlenet-train-b4). Both are closed loops with one caller.
#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "common.hpp"
#include "core/rng.hpp"
#include "core/tensor.hpp"
#include "nn/model_spec.hpp"
#include "nn/sgd.hpp"
#include "nn/softmax.hpp"
#include "nn/synthetic_data.hpp"

namespace perfbench {

using namespace gpucnn;

namespace {

constexpr std::size_t kImage = 224;
/// Reference tolerance on output probabilities, relative to the largest:
/// winograd-f4 rounds differently from im2col + GEMM, by far less.
constexpr float kRelTolerance = 1e-3F;
/// Relative tolerance on the first training loss against the reference.
constexpr double kLossTolerance = 1e-4;
/// Tail percentile of the closed loops (per-layer metrics): the highest
/// with ten samples beyond it at the forward counts a run holds.
constexpr double kTailPercentile = 90.0;
/// SGD step size of googlenet-train-b4: at 0.01 (momentum 0.9) the
/// loss on the fixed batch diverged within 15 steps on two seeds in ten.
constexpr double kLearningRate = 0.002;
/// googlenet-b1 reports its p50 as the median over this many consecutive
/// windows of forwards (stats.hpp: windowed_percentile).
constexpr std::size_t kWindows = 5;

std::size_t argmax(std::span<const float> row) {
  return static_cast<std::size_t>(
      std::max_element(row.begin(), row.end()) - row.begin());
}

/// Forward conv configurations of GoogLeNet at `batch`, with how many
/// times one forward runs each.
std::vector<std::pair<ConvConfig, int>> googlenet_convs(std::size_t batch) {
  std::vector<std::pair<ConvConfig, int>> out;
  for (const auto& layer : nn::googlenet(batch).layers) {
    if (layer.kind != nn::LayerSpec::Kind::kConv) continue;
    const auto it = std::find_if(out.begin(), out.end(), [&](const auto& p) {
      return p.first == layer.conv;
    });
    if (it == out.end()) {
      out.emplace_back(layer.conv, 1);
    } else {
      ++it->second;
    }
  }
  return out;
}

/// Adds the span-derived metrics shared by both GoogLeNet workloads;
/// returns the mean traced forward time in ms.
double add_span_metrics(Result& r, double overhead_pct) {
  const auto totals = span_totals(obs::tracer().events());
  auto mean_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(it->second.count);
  };
  r.add("nn.forward_ms", mean_ms("nn.forward"), "ms");
  r.add("nn.backward_ms", mean_ms("nn.backward"), "ms");
  r.add("nn.sgd_ms", mean_ms("nn.sgd"), "ms");
  r.add("obs.tracing_overhead_pct", overhead_pct, "%");
  for (const auto& [name, t] : totals) {
    r.notes["self_ms." + name] = format_g(t.self_ms) + " of " +
                                 format_g(t.total_ms) + " over " +
                                 std::to_string(t.count);
  }
  return mean_ms("nn.forward");
}

/// Zero-valued metrics of the layers a GoogLeNet workload never runs,
/// so every traced run reports the same metric set.
void add_serve_zeros(Result& r) {
  const std::pair<const char*, const char*> zeros[] = {
      {"serve.queue.wait_p50_us", "us"}, {"serve.queue.wait_p99_us", "us"},
      {"serve.compute_p50_us", "us"},    {"serve.gen.late_p99_ms", "ms"},
      {"serve.gen.late_max_ms", "ms"},   {"serve.batch.mean", "count"},
      {"serve.warmup.forwards", "count"}, {"quant.acts.clipped_share", "share"},
      {"serve.low.p50_ms", "ms"},        {"serve.low.p99_ms", "ms"},
      {"serve.high.p50_ms", "ms"},       {"serve.high.p99_ms", "ms"},
      {"serve.low.p90_ms", "ms"},        {"serve.max_rps", "1/s"},
      {"serve.saturation_rps", "1/s"},
  };
  for (const auto& [name, unit] : zeros) r.add(name, 0.0, unit);
  for (const char* phase : {"low", "high", "search"}) {
    for (const char* what : {"sent", "succeeded", "failed"}) {
      r.add(std::string("serve.") + phase + "." + what, 0.0, "count");
    }
  }
}

/// Per-op times of a closed loop, split by tracing, with the counter
/// snapshots at its start, half-way point and end.
struct LoopTimes {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  Counts start, mid, end;
  double first_half_ops = 0.0;
  double second_half_ops = 0.0;
  double window_s = 0.0;
};

/// Runs `op` in a closed loop for args.seconds. In trace mode the loop
/// alternates untraced and traced blocks of `block` operations, so the
/// traced run also yields the tracing overhead.
template <typename Op>
LoopTimes closed_loop(const Args& args, std::size_t block, Op&& op) {
  LoopTimes t;
  t.start = snapshot_counters();
  const double t0 = now_s();
  const double half = t0 + args.seconds / 2.0;
  bool mid_taken = false;
  std::size_t i = 0;
  for (; now_s() - t0 < args.seconds || i == 0; ++i) {
    const bool traced = args.trace && (i / block) % 2 == 1;
    obs::tracer().enable(traced);
    const double s = now_s();
    op(i);
    const double ms = (now_s() - s) * 1000.0;
    (traced ? t.traced_ms : t.untraced_ms).push_back(ms);
    if (!mid_taken && now_s() >= half) {
      obs::tracer().enable(false);
      t.mid = snapshot_counters();
      t.first_half_ops = static_cast<double>(i + 1);
      mid_taken = true;
    }
  }
  obs::tracer().enable(false);
  t.window_s = now_s() - t0;
  t.end = snapshot_counters();
  if (!mid_taken) {
    t.mid = t.end;
    t.first_half_ops = static_cast<double>(i);
  }
  t.second_half_ops = static_cast<double>(i) - t.first_half_ops;
  if (t.second_half_ops <= 0.0) {
    // One op in total: the halves degenerate to the whole window.
    t.mid = t.start;
    t.first_half_ops = static_cast<double>(i);
    t.second_half_ops = static_cast<double>(i);
    t.end = snapshot_counters();
  }
  return t;
}

double overhead_pct(const LoopTimes& t) {
  if (t.traced_ms.empty() || t.untraced_ms.empty()) return 0.0;
  const double base = median(t.untraced_ms);
  return 100.0 * (median(t.traced_ms) - base) / base;
}

std::vector<double> all_ms(const LoopTimes& t) {
  std::vector<double> v = t.untraced_ms;
  v.insert(v.end(), t.traced_ms.begin(), t.traced_ms.end());
  return v;
}

}  // namespace

int run_googlenet_b1(const Args& args, Result& r) {
  constexpr std::size_t kPool = 8;
  Rng input_rng(args.seed);
  std::vector<Tensor> images(kPool);
  for (auto& img : images) {
    img.resize({1, 3, kImage, kImage});
    img.fill_uniform(input_rng, -1.0F, 1.0F);
  }
  const std::uint64_t weight_seed = args.seed * 7919 + 1;

  auto& tuner = tune::Autotuner::instance();
  tuner.set_cache_path("");
  tuner.set_mode(tune::Mode::kMeasure);

  // Set-up: everything a user pays before the first served forward,
  // including the cold tuning sweep that runs inside the first forward.
  SetupClock setup("setup", args.trace);
  std::optional<nn::Network> net;
  {
    SetupClock step("setup.build", args.trace);
    net.emplace(nn::googlenet_network());
  }
  {
    SetupClock step("setup.init", args.trace);
    Rng wrng(weight_seed);
    net->initialize(wrng);
  }
  {
    SetupClock step("setup.fuse", args.trace);
    net->fuse_conv_relu();
    net->enable_autotune(true);
    net->set_training(false);
    net->set_memory_planning(true);
  }
  SetupClock freeze("setup.freeze", args.trace);
  net->freeze_for_inference();
  r.add("nn.freeze_ms", freeze.stop(), "ms");
  SetupClock first("setup.first_forward", args.trace);
  (void)net->forward(images[0]);
  const double first_s = first.stop() / 1000.0;
  const double setup_s = setup.stop() / 1000.0;
  r.add("setup_s", setup_s, "s");

  std::vector<std::vector<float>> outputs;
  auto loop = closed_loop(args, 10, [&](std::size_t i) {
    obs::Span span(obs::tracer(), "nn.forward", "bench");
    const Tensor& out = net->forward(images[i % kPool]);
    outputs.emplace_back(out.data().begin(), out.data().end());
  });
  r.add("rss_peak_mb", peak_rss_mb(), "MB");
  const auto ms = all_ms(loop);
  r.attempted = static_cast<std::int64_t>(ms.size());

  // Reference: same weights, no fusion, no tuning, no planner, no
  // freeze — the static unrolling executor.
  {
    nn::Network ref = nn::googlenet_network();
    Rng wrng(weight_seed);
    ref.initialize(wrng);
    ref.set_training(false);
    float worst = 0.0F;
    for (std::size_t k = 0; k < kPool && k < outputs.size(); ++k) {
      const auto e = ref.forward(images[k]).data();
      const float tol = kRelTolerance * *std::max_element(e.begin(), e.end());
      const std::size_t top = argmax(e);
      // Top-1 is only defined when the reference's winner leads the
      // runner-up by more than the tolerance.
      std::vector<float> sorted(e.begin(), e.end());
      std::nth_element(sorted.begin(), sorted.begin() + 1, sorted.end(),
                       std::greater<>());
      const bool top_defined = sorted[0] - sorted[1] > tol;
      for (std::size_t j = k; j < outputs.size(); j += kPool) {
        float err = 0.0F;
        for (std::size_t c = 0; c < e.size(); ++c) {
          err = std::max(err, std::fabs(outputs[j][c] - e[c]));
        }
        worst = std::max(worst, err / (tol / kRelTolerance));
        if (err > tol || (top_defined && argmax(outputs[j]) != top)) {
          ++r.failed;
        }
      }
    }
    r.notes["check.max_rel_err"] = format_g(worst);
    r.notes["check.rel_tolerance"] = format_g(kRelTolerance);
    if (r.failed > 0) {
      r.fail(std::to_string(r.failed) + " forwards differ from the reference");
    }
  }

  const double n = static_cast<double>(ms.size());
  r.add("success_share", (n - static_cast<double>(r.failed)) / n, "share");
  r.add("p50_ms", windowed_percentile(ms, 50, kWindows), "ms");
  r.notes["forwards_per_s"] = format_g(n / loop.window_s);
  for (const double q : {10.0, 25.0, 50.0, 90.0}) {
    r.notes["forward_ms.p" + format_g(q)] = format_g(percentile(ms, q));
  }

  if (args.trace) {
    add_count_metrics(r, loop.start, loop.mid, loop.end, loop.first_half_ops,
                      loop.second_half_ops);
    add_tune_metrics(r);
    const double forward_ms = add_span_metrics(r, overhead_pct(loop));
    r.add("nn.first_forward_s", first_s, "s");
    r.add("nn.forward.p90_ms", percentile(ms, kTailPercentile), "ms");
    r.add("nn.step.p90_ms", 0.0, "ms");
    r.add("nn.plan.peak_bytes",
          static_cast<double>(net->planned_activation_bytes()), "B");
    add_conv_replay_metrics(r, googlenet_convs(1), {tune::Pass::kForward},
                            forward_ms);
    add_serve_zeros(r);
  }
  return 0;
}

int run_googlenet_train(const Args& args, Result& r) {
  constexpr std::size_t kBatch = 4;
  constexpr int kSetups = 3;
  nn::SyntheticDataset data(/*classes=*/10, /*channels=*/3, kImage,
                            /*noise=*/0.3, args.seed);
  // Two batches alternate; batch 0 is the fixed batch whose loss must
  // fall over the run.
  std::vector<nn::Batch> batches;
  batches.push_back(data.sample(kBatch));
  batches.push_back(data.sample(kBatch));
  const std::uint64_t weight_seed = args.seed * 7919 + 1;

  auto& tuner = tune::Autotuner::instance();
  tuner.set_cache_path("");
  tuner.set_mode(tune::Mode::kHeuristic);

  std::optional<nn::Network> net;
  std::optional<nn::Sgd> sgd;
  Tensor grad;
  std::vector<double> losses;
  std::vector<double> fixed_losses;
  double forward_ms = 0.0;
  auto step = [&](std::size_t i) {
    const nn::Batch& b = batches[i % batches.size()];
    net->zero_grad();
    double loss = 0.0;
    {
      obs::Span span(obs::tracer(), "nn.forward", "bench");
      const double t0 = now_s();
      const Tensor& probs = net->forward(b.images);
      forward_ms = (now_s() - t0) * 1e3;
      loss = nn::cross_entropy_loss(probs, b.labels);
      nn::cross_entropy_prob_grad(probs, b.labels, grad);
    }
    {
      obs::Span span(obs::tracer(), "nn.backward", "bench");
      net->backward(grad);
    }
    {
      obs::Span span(obs::tracer(), "nn.sgd", "bench");
      sgd->step();
    }
    losses.push_back(loss);
    if (i % batches.size() == 0) fixed_losses.push_back(loss);
  };

  // Set-up (build, init, fuse, and the cold first step on the fixed
  // batch) is cheap enough to run kSetups times; the median counts and
  // the last network is the one trained.
  std::vector<double> setups;
  double first_forward_ms = 0.0;
  for (int s = 0; s < kSetups; ++s) {
    sgd.reset();
    net.reset();
    losses.clear();
    fixed_losses.clear();
    SetupClock setup("setup", args.trace);
    {
      SetupClock build("setup.build", args.trace);
      net.emplace(nn::googlenet_network());
    }
    {
      SetupClock init("setup.init", args.trace);
      Rng wrng(weight_seed);
      net->initialize(wrng);
    }
    {
      SetupClock fuse("setup.fuse", args.trace);
      net->fuse_conv_relu();
      net->enable_autotune(true);
      net->set_training(true);
      sgd.emplace(*net, nn::SgdOptions{kLearningRate, 0.9, 0.0});
    }
    {
      SetupClock first("setup.first_step", args.trace);
      step(0);
    }
    first_forward_ms = forward_ms;
    setups.push_back(setup.stop() / 1000.0);
  }
  r.add("setup_s", median(setups), "s");

  auto loop = closed_loop(args, 2, [&](std::size_t i) { step(i + 1); });
  r.add("rss_peak_mb", peak_rss_mb(), "MB");
  const auto ms = all_ms(loop);
  r.attempted = static_cast<std::int64_t>(losses.size());
  for (const double loss : losses) {
    if (!std::isfinite(loss)) ++r.failed;
  }
  if (r.failed > 0) r.fail(std::to_string(r.failed) + " losses not finite");

  // Reference first loss: same weights and batch, unfused and untuned.
  {
    nn::Network ref = nn::googlenet_network();
    Rng wrng(weight_seed);
    ref.initialize(wrng);
    ref.set_training(true);
    const double expect =
        nn::cross_entropy_loss(ref.forward(batches[0].images),
                               batches[0].labels);
    const double rel = std::fabs(losses.front() - expect) /
                       std::max(std::fabs(expect), 1e-12);
    r.notes["check.first_loss"] = format_g(losses.front());
    r.notes["check.reference_loss"] = format_g(expect);
    if (!(rel <= kLossTolerance)) {
      r.fail("first training loss differs from the reference by " +
             format_g(rel));
      ++r.failed;
    }
  }
  std::string trajectory;
  for (const double loss : fixed_losses) {
    trajectory += (trajectory.empty() ? "" : " ") + format_g(loss);
  }
  r.notes["check.fixed_batch_losses"] = trajectory;
  if (fixed_losses.size() < 2 || !(fixed_losses.back() < fixed_losses.front())) {
    r.fail("loss on the fixed batch did not fall over the run");
    ++r.failed;
  }

  const double n = static_cast<double>(ms.size());
  const double tried = static_cast<double>(r.attempted);
  r.add("success_share",
        std::max(0.0, (tried - static_cast<double>(r.failed)) / tried),
        "share");
  r.add("p50_ms", percentile(ms, 50), "ms");
  r.notes["images_per_s"] = format_g(n * kBatch / loop.window_s);

  if (args.trace) {
    add_count_metrics(r, loop.start, loop.mid, loop.end, loop.first_half_ops,
                      loop.second_half_ops);
    add_tune_metrics(r);
    const double step_forward_ms = add_span_metrics(r, overhead_pct(loop));
    r.add("nn.freeze_ms", 0.0, "ms");
    r.add("nn.first_forward_s", first_forward_ms / 1000.0, "s");
    r.add("nn.forward.p90_ms", 0.0, "ms");
    r.add("nn.step.p90_ms", percentile(ms, kTailPercentile), "ms");
    r.add("nn.plan.peak_bytes", 0.0, "B");
    add_conv_replay_metrics(
        r, googlenet_convs(kBatch),
        {tune::Pass::kForward, tune::Pass::kBackwardData,
         tune::Pass::kBackwardFilter},
        step_forward_ms);
    add_serve_zeros(r);
  }
  return 0;
}

}  // namespace perfbench
