// Analysis-layer tests: sweep machinery, evaluation driver and model
// breakdowns.
#include <gtest/gtest.h>

#include "analysis/conv_runner.hpp"
#include "analysis/model_breakdown.hpp"
#include "analysis/sweep.hpp"

namespace gpucnn::analysis {
namespace {

using frameworks::FrameworkId;

TEST(Sweep, BaseConfigIsPaperTuple) {
  EXPECT_EQ(base_config().to_string(), "(64,128,64,11,1)");
  EXPECT_EQ(base_config().channels, 3U);
}

TEST(Sweep, PaperSweepRanges) {
  const auto sweeps = paper_sweeps();
  ASSERT_EQ(sweeps.size(), 5U);
  EXPECT_EQ(sweeps[0].values.front(), 32U);  // batch 32..512 step 32
  EXPECT_EQ(sweeps[0].values.back(), 512U);
  EXPECT_EQ(sweeps[0].values.size(), 16U);
  EXPECT_EQ(sweeps[1].values.back(), 256U);  // input
  EXPECT_EQ(sweeps[2].values.size(), 31U);   // filters 32..512 step 16
  EXPECT_EQ(sweeps[4].values, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(Sweep, ConfigForVariesOnlyOneParameter) {
  const auto sweeps = paper_sweeps();
  const ConvConfig base = base_config();
  for (const auto& spec : sweeps) {
    const auto cfg = spec.config_for(spec.values.front());
    int differing = 0;
    differing += cfg.batch != base.batch;
    differing += cfg.input != base.input;
    differing += cfg.filters != base.filters;
    differing += cfg.kernel != base.kernel;
    differing += cfg.stride != base.stride;
    EXPECT_LE(differing, 1) << to_string(spec.parameter);
    EXPECT_EQ(cfg.channels, base.channels);
  }
}

TEST(Sweep, WinogradSweepsStayInTheEligibleFamily) {
  const ConvConfig base = winograd_base_config();
  EXPECT_EQ(base.to_string(), "(64,56,64,3,1)");
  EXPECT_EQ(base.channels, 64U);
  EXPECT_EQ(base.groups, 1U);
  const auto sweeps = winograd_sweeps();
  ASSERT_EQ(sweeps.size(), 3U);  // kernel and stride are pinned at (3, 1)
  EXPECT_EQ(sweeps[0].parameter, SweepParameter::kBatch);
  EXPECT_EQ(sweeps[1].parameter, SweepParameter::kInput);
  EXPECT_EQ(sweeps[2].parameter, SweepParameter::kFilters);
  for (const auto& spec : sweeps) {
    for (const std::size_t value : spec.values) {
      const ConvConfig cfg = spec.config_for(value);
      EXPECT_EQ(cfg.kernel, 3U) << to_string(spec.parameter);
      EXPECT_EQ(cfg.stride, 1U) << to_string(spec.parameter);
      EXPECT_EQ(cfg.groups, 1U) << to_string(spec.parameter);
      EXPECT_LE(cfg.pad, 2U) << to_string(spec.parameter);
    }
  }
}

TEST(Sweep, RunSweepCoversAllFrameworks) {
  SweepSpec spec{SweepParameter::kStride, {1, 2}};
  const auto points = run_sweep(spec);
  ASSERT_EQ(points.size(), 2U);
  for (const auto& p : points) {
    EXPECT_EQ(p.results.size(), 7U);
  }
}

TEST(ConvRunner, UnsupportedShapeReported) {
  ConvConfig cfg = base_config();
  cfg.stride = 2;
  const auto r = evaluate(FrameworkId::kFbfft, cfg);
  EXPECT_FALSE(r.supported);
  EXPECT_FALSE(r.unsupported_reason.empty());
  EXPECT_EQ(r.runtime_ms, 0.0);
}

TEST(ConvRunner, ResultFieldsConsistent) {
  const auto r = evaluate(FrameworkId::kCaffe, base_config());
  EXPECT_TRUE(r.supported);
  EXPECT_NEAR(r.runtime_ms, r.kernel_ms + r.transfer_ms, 1e-9);
  EXPECT_NEAR(r.transfer_share, r.transfer_ms / r.runtime_ms, 1e-9);
  EXPECT_GT(r.peak_mb, 0.0);
  EXPECT_FALSE(r.hotspots.empty());
  double share_sum = 0.0;
  for (const auto& h : r.hotspots) share_sum += h.share;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(ConvRunner, OutOfMemoryFlaggedNotThrown) {
  // fbfft at an extreme shape exceeds the 12 GB card.
  ConvConfig cfg = base_config();
  cfg.batch = 512;
  cfg.filters = 512;
  const auto r = evaluate(FrameworkId::kFbfft, cfg);
  EXPECT_TRUE(r.supported);
  EXPECT_TRUE(r.out_of_memory);
  EXPECT_GT(r.peak_mb, 12000.0);
}

TEST(ConvRunner, PassSplitCoversKernelTime) {
  // The per-pass tags partition the kernel time (convnet-benchmarks
  // split), and backward costs roughly twice forward for GEMM-style
  // implementations.
  for (const auto id :
       {FrameworkId::kCaffe, FrameworkId::kCudnn,
        FrameworkId::kCudaConvnet2, FrameworkId::kFbfft}) {
    const auto r = evaluate(id, base_config());
    double sum = 0.0;
    for (const auto& [pass, ms] : r.pass_ms) sum += ms;
    EXPECT_NEAR(sum, r.kernel_ms, 1e-6) << frameworks::to_string(id);
    EXPECT_GT(r.forward_ms(), 0.0) << frameworks::to_string(id);
    const double ratio = r.backward_ms() / r.forward_ms();
    EXPECT_GT(ratio, 1.5) << frameworks::to_string(id);
    EXPECT_LT(ratio, 3.0) << frameworks::to_string(id);
  }
}

TEST(ConvRunner, PassNames) {
  EXPECT_STREQ(gpusim::to_string(gpusim::Pass::kForward), "forward");
  EXPECT_STREQ(gpusim::to_string(gpusim::Pass::kBackwardData),
               "backward-data");
  EXPECT_STREQ(gpusim::to_string(gpusim::Pass::kBackwardFilter),
               "backward-filter");
  EXPECT_STREQ(gpusim::to_string(gpusim::Pass::kAuxiliary), "auxiliary");
}

TEST(ConvRunner, EvaluateAllPreservesOrder) {
  const auto rs = evaluate_all(base_config());
  ASSERT_EQ(rs.size(), 7U);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].framework, frameworks::kAllFrameworks[i]);
  }
}

TEST(ModelBreakdownTest, SharesSumToOne) {
  const auto b = breakdown_model(nn::alexnet(32));
  double total_share = 0.0;
  for (const auto& [kind, ms] : b.by_kind) {
    total_share += b.share(kind);
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  EXPECT_EQ(b.layers.size(), nn::alexnet(32).layers.size());
}

TEST(ModelBreakdownTest, ConvFrameworkChangesConvTimeOnly) {
  const auto caffe =
      breakdown_model(nn::alexnet(32), FrameworkId::kCaffe);
  const auto cudnn =
      breakdown_model(nn::alexnet(32), FrameworkId::kCudnn);
  EXPECT_LT(cudnn.by_kind.at(nn::LayerSpec::Kind::kConv),
            caffe.by_kind.at(nn::LayerSpec::Kind::kConv));
  EXPECT_NEAR(cudnn.by_kind.at(nn::LayerSpec::Kind::kFc),
              caffe.by_kind.at(nn::LayerSpec::Kind::kFc), 1e-9);
}

TEST(ModelBreakdownTest, BiggerBatchTakesLonger) {
  const auto small = breakdown_model(nn::alexnet(32));
  const auto large = breakdown_model(nn::alexnet(128));
  EXPECT_GT(large.total_ms, small.total_ms * 2.0);
}

TEST(ModelBreakdownTest, MissingKindHasZeroShare) {
  const auto b = breakdown_model(nn::vgg16(8));
  EXPECT_DOUBLE_EQ(b.share(nn::LayerSpec::Kind::kConcat), 0.0);
}

}  // namespace
}  // namespace gpucnn::analysis
