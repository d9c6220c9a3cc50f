#include "tune/autotuner.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "conv/conv_engine.hpp"
#include "core/cpu_features.hpp"
#include "obs/metrics.hpp"

namespace gpucnn::tune {
namespace {

// Every test pins trials to 1 and restores the tuner's global state, so
// suites can run in any order.
class TunerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tuner_ = &Autotuner::instance();
    mode_before_ = tuner_->mode();
    trials_before_ = tuner_->set_trials_for_testing(1);
    path_before_ = tuner_->set_cache_path("");
    tuner_->clear();
  }
  void TearDown() override {
    tuner_->clear();
    (void)tuner_->set_cache_path(path_before_);
    tuner_->set_trials_for_testing(trials_before_);
    tuner_->set_mode(mode_before_);
  }

  static ConvConfig small_config() {
    return ConvConfig{.batch = 1, .input = 8, .channels = 2, .filters = 4,
                      .kernel = 3, .stride = 1, .pad = 1, .groups = 1};
  }

  Autotuner* tuner_ = nullptr;
  Mode mode_before_{};
  int trials_before_ = 0;
  std::string path_before_;
};

TEST(TuneMode, ParseAndPrintRoundTrip) {
  EXPECT_EQ(parse_mode("off"), Mode::kOff);
  EXPECT_EQ(parse_mode("heuristic"), Mode::kHeuristic);
  EXPECT_EQ(parse_mode("measure"), Mode::kMeasure);
  EXPECT_FALSE(parse_mode("fastest").has_value());
  EXPECT_EQ(to_string(Mode::kMeasure), "measure");
  EXPECT_EQ(to_string(Pass::kBackwardData), "backward-data");
}

TEST_F(TunerFixture, OffModeChoosesNothing) {
  tuner_->set_mode(Mode::kOff);
  EXPECT_EQ(tuner_->choose(small_config(), Pass::kForward), nullptr);
}

TEST_F(TunerFixture, EligibilityRespectsEngineShapeLimits) {
  // Stride 2 rules out FFT and both Winograd engines; kernel 4 rules out
  // Winograd even at stride 1. measure_all must mark them ineligible and
  // never run them.
  ConvConfig strided = small_config();
  strided.stride = 2;
  const auto timings = tuner_->measure_all(strided, Pass::kForward);
  ASSERT_EQ(timings.size(), 6U);
  for (const auto& t : timings) {
    // Depthwise is also out: the config is ungrouped multi-channel.
    const bool ineligible = t.engine_name == "fft" ||
                            t.engine_name == "winograd" ||
                            t.engine_name == "winograd-f4" ||
                            t.engine_name == "depthwise";
    EXPECT_EQ(t.eligible, !ineligible) << t.engine_name;
    if (!t.eligible) {
      EXPECT_EQ(t.ms, 0.0) << t.engine_name << " was timed while ineligible";
    } else {
      EXPECT_GT(t.ms, 0.0) << t.engine_name;
    }
  }
}

TEST_F(TunerFixture, HeuristicPicksASupportedEngineWithoutTiming) {
  tuner_->set_mode(Mode::kHeuristic);
  const auto trials_before =
      obs::metrics().counter("tune.trials").value();
  ConvConfig grouped = small_config();
  grouped.groups = 2;  // only direct + unrolling support groups
  const Decision d = tuner_->decide(grouped, Pass::kForward);
  ASSERT_NE(d.engine, nullptr);
  EXPECT_TRUE(d.engine->supports(grouped));
  EXPECT_FALSE(d.measured);
  EXPECT_EQ(obs::metrics().counter("tune.trials").value(), trials_before)
      << "heuristic mode must not run engines";
}

TEST_F(TunerFixture, HeuristicPrefersDepthwiseOnDepthwiseShapes) {
  tuner_->set_mode(Mode::kHeuristic);
  ConvConfig dw = small_config();
  dw.channels = 8;
  dw.filters = 16;  // multiplier 2
  dw.groups = 8;
  const Decision d = tuner_->decide(dw, Pass::kForward);
  ASSERT_NE(d.engine, nullptr);
  EXPECT_EQ(d.engine_name, "depthwise");

  // Ungrouped configs keep their previous heuristic picks: the
  // depthwise engine accepts channels == 1 but must not jump the queue.
  tuner_->clear();
  const Decision plain = tuner_->decide(small_config(), Pass::kForward);
  ASSERT_NE(plain.engine, nullptr);
  EXPECT_NE(plain.engine_name, "depthwise");
}

TEST_F(TunerFixture, MeasuredDecisionIsDeterministicAndMemoized) {
  // Pinning the SIMD level makes the candidate set and the memo key
  // deterministic; the winner itself is whatever the machine measures,
  // but repeated decides must return the memoized pick without rerunning.
  const simd::Level level_before =
      simd::set_active_for_testing(simd::Level::kPortable);
  tuner_->set_mode(Mode::kMeasure);
  const Decision first = tuner_->decide(small_config(), Pass::kForward);
  ASSERT_NE(first.engine, nullptr);
  EXPECT_TRUE(first.measured);
  EXPECT_GT(first.best_ms, 0.0);
  EXPECT_GT(first.baseline_ms, 0.0);
  // The winner is a min over candidates that includes the default, so it
  // can never be slower than the default.
  EXPECT_LE(first.best_ms, first.baseline_ms);

  const auto trials_after_first =
      obs::metrics().counter("tune.trials").value();
  const Decision second = tuner_->decide(small_config(), Pass::kForward);
  EXPECT_EQ(second.engine_name, first.engine_name);
  EXPECT_EQ(obs::metrics().counter("tune.trials").value(),
            trials_after_first)
      << "memoized decision must not re-measure";
  simd::set_active_for_testing(level_before);
}

TEST_F(TunerFixture, CacheRoundTripPreservesDecisions) {
  const std::string path = testing::TempDir() + "tune_cache_rt.json";
  tuner_->set_mode(Mode::kMeasure);
  const Decision fwd = tuner_->decide(small_config(), Pass::kForward);
  const Decision bwd = tuner_->decide(small_config(), Pass::kBackwardData);
  ASSERT_TRUE(tuner_->save_cache(path));

  tuner_->clear();
  EXPECT_EQ(tuner_->size(), 0U);
  EXPECT_EQ(tuner_->load_cache(path), 2U);
  const auto trials_before = obs::metrics().counter("tune.trials").value();
  EXPECT_EQ(tuner_->decide(small_config(), Pass::kForward).engine_name,
            fwd.engine_name);
  EXPECT_EQ(tuner_->decide(small_config(), Pass::kBackwardData).engine_name,
            bwd.engine_name);
  EXPECT_EQ(obs::metrics().counter("tune.trials").value(), trials_before)
      << "reloaded decisions must be warm";
}

TEST_F(TunerFixture, CacheInvalidatesOnKeyMismatch) {
  const std::string path = testing::TempDir() + "tune_cache_inv.json";
  tuner_->set_mode(Mode::kMeasure);
  (void)tuner_->decide(small_config(), Pass::kForward);
  ASSERT_TRUE(tuner_->save_cache(path));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string original = buf.str();

  const auto tampered_reload = [&](std::string text, std::string_view from,
                                   std::string_view to) {
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::ofstream out(path);
    out << text;
    out.close();
    tuner_->clear();
    return tuner_->load_cache(path);
  };

  // Wrong SIMD level: the whole file is discarded.
  EXPECT_EQ(tampered_reload(original,
                            std::string("\"simd\": \"") +
                                simd::name(simd::active()) + '"',
                            "\"simd\": \"sve2\""),
            0U);
  // Wrong thread count: the whole file is discarded.
  EXPECT_EQ(tampered_reload(original, "\"threads\"", "\"threads_x\""), 0U);
  // Wrong schema version: discarded.
  EXPECT_EQ(tampered_reload(original, "\"tune_cache_version\": 2",
                            "\"tune_cache_version\": 999"),
            0U);
  // Wrong engine set (a binary with different engines wrote the file):
  // discarded.
  EXPECT_EQ(tampered_reload(original, "\"engines\"", "\"engines_x\""), 0U);
  // Entry dtype missing (pre-v2 entry shape): that entry is dropped.
  EXPECT_EQ(tampered_reload(original, "\"dtype\"", "\"dtype_x\""), 0U);
  // Edited config field: the per-entry hash no longer matches, so the
  // entry (here, the only one) is dropped while the file stays valid.
  EXPECT_EQ(tampered_reload(original, "\"kernel\": 3", "\"kernel\": 5"),
            0U);
  // Untampered file loads back.
  {
    std::ofstream out(path);
    out << original;
  }
  tuner_->clear();
  EXPECT_EQ(tuner_->load_cache(path), 1U);
}

TEST_F(TunerFixture, KeyHashSeparatesConfigsAndPasses) {
  const ConvConfig a = small_config();
  ConvConfig b = small_config();
  b.pad = 0;
  EXPECT_NE(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(b, Pass::kForward));
  EXPECT_NE(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(a, Pass::kBackwardFilter));
  EXPECT_EQ(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(small_config(), Pass::kForward));
}

TEST_F(TunerFixture, KeyHashSeparatesDtypes) {
  const ConvConfig a = small_config();
  EXPECT_NE(Autotuner::key_hash(a, Pass::kForward, Dtype::kF32),
            Autotuner::key_hash(a, Pass::kForward, Dtype::kInt8));
  EXPECT_EQ(Autotuner::key_hash(a, Pass::kForward),
            Autotuner::key_hash(a, Pass::kForward, Dtype::kF32));
}

TEST_F(TunerFixture, Int8PoolOnlyExtendsTheForwardPass) {
  // The int8 engine joins the candidate pool for (kForward, kInt8) only:
  // fp32 callers keep the exact six engines, and no backward pass ever
  // sees an inference-only engine.
  const ConvConfig cfg = small_config();
  EXPECT_EQ(tuner_->measure_all(cfg, Pass::kForward).size(), 6U);
  EXPECT_EQ(tuner_->measure_all(cfg, Pass::kBackwardData, Dtype::kInt8)
                .size(),
            6U);
  const auto timings = tuner_->measure_all(cfg, Pass::kForward, Dtype::kInt8);
  ASSERT_EQ(timings.size(), 7U);
  bool unrolling_int8 = false;
  for (const auto& t : timings) {
    unrolling_int8 |= t.engine_name == "unrolling-int8";
  }
  EXPECT_TRUE(unrolling_int8);
}

TEST_F(TunerFixture, Int8DecisionsMemoizeSeparatelyAndRoundTrip) {
  const std::string path = testing::TempDir() + "tune_cache_int8.json";
  tuner_->set_mode(Mode::kMeasure);
  const Decision f32 = tuner_->decide(small_config(), Pass::kForward);
  const Decision int8 =
      tuner_->decide(small_config(), Pass::kForward, Dtype::kInt8);
  ASSERT_NE(f32.engine, nullptr);
  ASSERT_NE(int8.engine, nullptr);
  EXPECT_EQ(tuner_->size(), 2U) << "dtypes must get separate memo keys";

  ASSERT_TRUE(tuner_->save_cache(path));
  tuner_->clear();
  EXPECT_EQ(tuner_->load_cache(path), 2U);
  EXPECT_EQ(
      tuner_->decide(small_config(), Pass::kForward, Dtype::kInt8)
          .engine_name,
      int8.engine_name);
  EXPECT_EQ(tuner_->decide(small_config(), Pass::kForward).engine_name,
            f32.engine_name);
}

TEST_F(TunerFixture, PreInt8CacheIsRejectedWholesale) {
  // A handcrafted v1-era cache (no engines field, no dtype, version 1)
  // must load zero entries rather than resurrect stale decisions.
  const std::string path = testing::TempDir() + "tune_cache_v1.json";
  {
    std::ofstream out(path);
    out << "{\"tune_cache_version\": 1, \"simd\": \""
        << simd::name(simd::active()) << "\", \"threads\": 1, "
        << "\"entries\": []}";
  }
  tuner_->clear();
  EXPECT_EQ(tuner_->load_cache(path), 0U);
}

TEST_F(TunerFixture, CacheFromTheTenEngineBinaryIsDiscarded) {
  // A cache written before implicit-gemm, fft-tiled and implicit-int8
  // were deleted: well-formed, current version/SIMD/threads, but its
  // winners were picked from a different engine set, so nothing loads.
  const std::string path = testing::TempDir() + "tune_cache_ten.json";
  tuner_->set_mode(Mode::kMeasure);
  (void)tuner_->decide(small_config(), Pass::kForward);
  ASSERT_TRUE(tuner_->save_cache(path));
  std::stringstream buf;
  buf << std::ifstream(path).rdbuf();
  std::string text = buf.str();
  const std::string current =
      "\"engines\": \"direct,unrolling,fft,winograd,depthwise,winograd-f4,"
      "unrolling-int8\"";
  const auto at = text.find(current);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, current.size(),
               "\"engines\": \"direct,unrolling,implicit-gemm,fft,fft-tiled,"
               "winograd,depthwise,winograd-f4,unrolling-int8,implicit-int8\"");
  std::ofstream(path) << text;

  tuner_->clear();
  EXPECT_EQ(tuner_->load_cache(path), 0U);
  EXPECT_EQ(tuner_->size(), 0U);
}

TEST_F(TunerFixture, DeeplyNestedCacheIsDiscardedWithoutCrashing) {
  // 200 000 nested arrays: a parser that recursed once per level ran off
  // the stack. The nesting cap turns the file into a malformed cache.
  const std::string path = testing::TempDir() + "tune_cache_deep.json";
  std::ofstream(path) << std::string(200000, '[');
  EXPECT_EQ(tuner_->load_cache(path), 0U);
  EXPECT_EQ(tuner_->size(), 0U);

  // The lazy first-use load on a set cache path takes the same route.
  tuner_->set_mode(Mode::kHeuristic);
  (void)tuner_->set_cache_path(path);
  EXPECT_NE(tuner_->choose(small_config(), Pass::kForward), nullptr);
  EXPECT_EQ(tuner_->size(), 1U);  // that fresh decision only
}

TEST_F(TunerFixture, HostileCacheNumbersAreDiscarded) {
  // Numbers that are no exact count: negative, fractional, out of any
  // integer range, and the non-JSON literals a lenient reader would
  // take. A key field holding one drops its entry; a header field drops
  // the whole file. Neither may reach a double->integer cast.
  const std::string path = testing::TempDir() + "tune_cache_hostile.json";
  tuner_->set_mode(Mode::kMeasure);
  (void)tuner_->decide(small_config(), Pass::kForward);
  ASSERT_TRUE(tuner_->save_cache(path));
  std::stringstream buf;
  buf << std::ifstream(path).rdbuf();
  const std::string original = buf.str();

  const auto load_with = [&](std::string_view field, std::string_view value) {
    std::string text = original;
    const std::string prefix = std::string(1, '"').append(field) + "\": ";
    const auto at = text.find(prefix);
    EXPECT_NE(at, std::string::npos) << field;
    const auto end = text.find_first_of(",\n", at + prefix.size());
    text.replace(at + prefix.size(), end - at - prefix.size(), value);
    std::ofstream(path) << text;
    tuner_->clear();
    return tuner_->load_cache(path);
  };
  for (const std::string_view value :
       {"-1", "1e300", "1.5", "9007199254740994", "inf", "-nan"}) {
    for (const std::string_view field :
         {"batch", "threads", "tune_cache_version"}) {
      EXPECT_EQ(load_with(field, value), 0U) << field << " = " << value;
      EXPECT_EQ(tuner_->size(), 0U) << field << " = " << value;
    }
  }
  // The untouched file still loads, so the edits above are what failed.
  EXPECT_EQ(load_with("batch", "1"), 1U);
}

TEST_F(TunerFixture, SearchOrderMatchesParent) {
  // Eligible engines in search order, recorded before the engine table
  // was centralised: the order decides the heuristic pick and the
  // measured sweep's pruning, so it must not move. Covers both sides of
  // the Winograd leader gate (C = 63, input 27), the depthwise and int8
  // leaders, 1x1 and strided shapes, and all three passes. LeNet conv2
  // at batch 32 is the one recorded case that moved (direct led it);
  // measure_all times fft fastest there on all three passes, so neither
  // order's heuristic pick is the measured winner.
  struct Case {
    ConvConfig cfg;
    Pass pass;
    Dtype dtype;
    std::vector<std::string_view> order;
  };
  const ConvConfig lenet_conv2{32, 14, 6, 16, 5, 1, 0, 1};
  const ConvConfig inception_3x3{1, 28, 96, 128, 3, 1, 1, 1};
  ConvConfig thin_3x3 = inception_3x3;
  thin_3x3.channels = 63;
  ConvConfig small_3x3 = inception_3x3;
  small_3x3.input = 27;
  const ConvConfig depthwise{1, 56, 128, 128, 3, 1, 1, 128};
  const ConvConfig pointwise{1, 28, 192, 64, 1, 1, 0, 1};
  const ConvConfig conv1_7x7{1, 224, 3, 64, 7, 2, 3, 1};
  const ConvConfig lenet_conv1{1, 32, 1, 6, 5, 1, 0, 1};
  const std::vector<std::string_view> fft_prior = {"unrolling", "fft",
                                                   "direct"};
  const Case cases[] = {
      {lenet_conv2, Pass::kForward, Dtype::kF32,
       {"unrolling", "fft", "direct"}},
      {lenet_conv2, Pass::kBackwardData, Dtype::kF32,
       {"unrolling", "fft", "direct"}},
      {inception_3x3, Pass::kForward, Dtype::kF32,
       {"winograd-f4", "winograd", "unrolling", "fft", "direct"}},
      {inception_3x3, Pass::kBackwardFilter, Dtype::kF32,
       {"winograd-f4", "winograd", "unrolling", "fft", "direct"}},
      {thin_3x3, Pass::kForward, Dtype::kF32,
       {"unrolling", "fft", "direct", "winograd", "winograd-f4"}},
      {small_3x3, Pass::kForward, Dtype::kF32,
       {"unrolling", "fft", "direct", "winograd", "winograd-f4"}},
      {depthwise, Pass::kForward, Dtype::kF32,
       {"depthwise", "unrolling", "direct"}},
      {pointwise, Pass::kBackwardData, Dtype::kF32, fft_prior},
      {conv1_7x7, Pass::kForward, Dtype::kF32, {"unrolling", "direct"}},
      {conv1_7x7, Pass::kBackwardFilter, Dtype::kF32,
       {"unrolling", "direct"}},
      {lenet_conv1, Pass::kForward, Dtype::kInt8,
       {"unrolling-int8", "unrolling", "fft", "direct", "depthwise"}},
      {lenet_conv1, Pass::kBackwardData, Dtype::kInt8,
       {"unrolling", "fft", "direct", "depthwise"}},
  };
  for (const auto& c : cases) {
    std::vector<std::string_view> got;
    for (const auto* engine : search_order(c.cfg, c.pass, c.dtype)) {
      got.push_back(engine->name());
    }
    EXPECT_EQ(got, c.order) << c.cfg.to_string() << " groups="
                            << c.cfg.groups << ' ' << to_string(c.pass)
                            << ' ' << to_string(c.dtype);
  }
}

TEST_F(TunerFixture, DefaultEngineIsTheStaticUnrollingStrategy) {
  EXPECT_EQ(default_engine().name(), "unrolling");
  EXPECT_EQ(default_engine().strategy(), conv::Strategy::kUnrolling);
}

}  // namespace
}  // namespace gpucnn::tune
