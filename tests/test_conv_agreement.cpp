// Cross-strategy agreement: the paper's three convolution strategies
// compute the same mathematical operator, so our three engines must agree
// on every pass across a sweep of geometries. DirectConv is the oracle
// (validated against hand computations and finite differences in
// test_direct_conv.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "conv/conv_engine.hpp"
#include "conv/registry.hpp"
#include "core/rng.hpp"

namespace gpucnn::conv {
namespace {

struct AgreementCase {
  ConvConfig cfg;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const AgreementCase& c) {
  return os << c.label;
}

class ConvAgreement : public ::testing::TestWithParam<AgreementCase> {
 protected:
  static double tolerance(const ConvConfig& cfg) {
    // FFT accumulates rounding over O(S^2 log S) operations; scale the
    // tolerance with problem size.
    const double scale =
        static_cast<double>(cfg.channels * cfg.kernel * cfg.kernel);
    return 1e-4 * (1.0 + scale * 0.02);
  }
};

TEST_P(ConvAgreement, ForwardAgreesAcrossStrategies) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(101);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);

  const ConvEngine& direct = conv::engine("direct");
  Tensor want(cfg.output_shape());
  direct.forward(cfg, input, filters, want);

  for (const Strategy s : {Strategy::kUnrolling, Strategy::kFft, Strategy::kWinograd}) {
    const ConvEngine& engine = conv::engine(to_string(s));
    if (!engine.supports(cfg)) continue;
    Tensor got(cfg.output_shape());
    engine.forward(cfg, input, filters, got);
    EXPECT_LT(max_abs_diff(want, got), tolerance(cfg))
        << "strategy " << to_string(s);
  }
}

TEST_P(ConvAgreement, BackwardDataAgreesAcrossStrategies) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(202);
  Tensor grad_output(cfg.output_shape());
  grad_output.fill_uniform(rng);
  Tensor filters(cfg.filter_shape());
  filters.fill_uniform(rng);

  const ConvEngine& direct = conv::engine("direct");
  Tensor want(cfg.input_shape());
  direct.backward_data(cfg, grad_output, filters, want);

  for (const Strategy s : {Strategy::kUnrolling, Strategy::kFft, Strategy::kWinograd}) {
    const ConvEngine& engine = conv::engine(to_string(s));
    if (!engine.supports(cfg)) continue;
    Tensor got(cfg.input_shape());
    engine.backward_data(cfg, grad_output, filters, got);
    EXPECT_LT(max_abs_diff(want, got), tolerance(cfg))
        << "strategy " << to_string(s);
  }
}

TEST_P(ConvAgreement, BackwardFilterAgreesAcrossStrategies) {
  const ConvConfig cfg = GetParam().cfg;
  Rng rng(303);
  Tensor input(cfg.input_shape());
  input.fill_uniform(rng);
  Tensor grad_output(cfg.output_shape());
  grad_output.fill_uniform(rng);

  const ConvEngine& direct = conv::engine("direct");
  Tensor want(cfg.filter_shape());
  direct.backward_filter(cfg, input, grad_output, want);

  // The filter gradient reduces over batch * o^2 terms; loosen
  // proportionally.
  const double tol =
      tolerance(cfg) *
      (1.0 + 0.05 * static_cast<double>(cfg.batch) *
                 static_cast<double>(cfg.output()));

  for (const Strategy s : {Strategy::kUnrolling, Strategy::kFft, Strategy::kWinograd}) {
    const ConvEngine& engine = conv::engine(to_string(s));
    if (!engine.supports(cfg)) continue;
    Tensor got(cfg.filter_shape());
    engine.backward_filter(cfg, input, grad_output, got);
    EXPECT_LT(max_abs_diff(want, got), tol) << "strategy " << to_string(s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvAgreement,
    ::testing::Values(
        AgreementCase{{.batch = 1, .input = 4, .channels = 1, .filters = 1,
                       .kernel = 1, .stride = 1},
                      "trivial_1x1"},
        AgreementCase{{.batch = 2, .input = 8, .channels = 3, .filters = 4,
                       .kernel = 3, .stride = 1},
                      "small_3x3"},
        AgreementCase{{.batch = 2, .input = 9, .channels = 2, .filters = 3,
                       .kernel = 4, .stride = 1},
                      "even_kernel"},
        AgreementCase{{.batch = 1, .input = 16, .channels = 2, .filters = 2,
                       .kernel = 5, .stride = 1, .pad = 2},
                      "same_padding"},
        AgreementCase{{.batch = 3, .input = 12, .channels = 4, .filters = 5,
                       .kernel = 3, .stride = 2},
                      "strided_no_fft"},
        AgreementCase{{.batch = 2, .input = 11, .channels = 3, .filters = 2,
                       .kernel = 3, .stride = 3, .pad = 1},
                      "stride3_pad"},
        AgreementCase{{.batch = 1, .input = 13, .channels = 2, .filters = 2,
                       .kernel = 13, .stride = 1},
                      "kernel_equals_input"},
        AgreementCase{{.batch = 2, .input = 10, .channels = 1, .filters = 1,
                       .kernel = 7, .stride = 1, .pad = 3},
                      "large_kernel_padded"},
        AgreementCase{{.batch = 4, .input = 6, .channels = 8, .filters = 8,
                       .kernel = 3, .stride = 1},
                      "deep_channels"},
        AgreementCase{{.batch = 1, .input = 32, .channels = 1, .filters = 1,
                       .kernel = 11, .stride = 1},
                      "paper_kernel_11"}));

TEST(FftConvLimits, RejectsStrideGreaterThanOne) {
  const ConvConfig cfg{.batch = 1, .input = 8, .channels = 1, .filters = 1,
                       .kernel = 3, .stride = 2};
  const ConvEngine& engine = conv::engine("fft");
  EXPECT_FALSE(engine.supports(cfg));
  Tensor input(cfg.input_shape());
  Tensor filters(cfg.filter_shape());
  Tensor output(cfg.output_shape());
  EXPECT_THROW(engine.forward(cfg, input, filters, output), Error);
}

TEST(EngineFactory, ProducesAllStrategies) {
  EXPECT_EQ(conv::engine("direct").strategy(), Strategy::kDirect);
  EXPECT_EQ(conv::engine("unrolling").strategy(),
            Strategy::kUnrolling);
  EXPECT_EQ(conv::engine("fft").strategy(), Strategy::kFft);
}

TEST(EngineFactory, NamesMatchStrategyStrings) {
  // A strategy's static engine is the registry row named after it.
  for (const Strategy s :
       {Strategy::kDirect, Strategy::kUnrolling, Strategy::kFft,
        Strategy::kWinograd}) {
    EXPECT_EQ(conv::engine(to_string(s)).name(), to_string(s));
    EXPECT_EQ(conv::engine(to_string(s)).strategy(), s);
    EXPECT_EQ(strategy_named(to_string(s)), s);
  }
  EXPECT_FALSE(strategy_named("winograd-f4").has_value());
  EXPECT_FALSE(strategy_named("no-such-engine").has_value());
}

TEST(EngineRegistry, PoolOrderRowsAndLookup) {
  // The order is every tune cache's "engines" header: changing it
  // invalidates caches written by earlier binaries.
  const std::vector<std::string_view> pool = {
      "direct",    "unrolling",   "fft",           "winograd",
      "depthwise", "winograd-f4", "unrolling-int8"};
  ASSERT_EQ(registry().size(), 7U);
  std::vector<std::string_view> names;
  for (const EngineEntry& entry : registry()) {
    names.push_back(entry.name());
    EXPECT_EQ(find_engine(entry.name()), &entry);
    EXPECT_EQ(entry.backward, entry.dtype != Dtype::kInt8) << entry.name();
  }
  EXPECT_EQ(names, pool);
  EXPECT_EQ(find_engine("fft-complex"), nullptr);  // a cross-check only
  EXPECT_THROW((void)conv::engine("no-such-engine"), Error);
  // Engines deleted from the table stay unknown: a stale name (from an
  // old tune cache or a CLI argument) must not resolve.
  for (const std::string_view gone :
       {"implicit-gemm", "fft-tiled", "implicit-int8"}) {
    EXPECT_EQ(find_engine(gone), nullptr) << gone;
    EXPECT_THROW((void)conv::engine(gone), Error) << gone;
  }

  EXPECT_EQ(conv::engine("unrolling").pack_kind(), PackKind::kGemm);
  EXPECT_EQ(conv::engine("winograd").pack_kind(), PackKind::kWinogradF2);
  EXPECT_EQ(conv::engine("winograd-f4").pack_kind(), PackKind::kWinogradF4);
  for (const std::string_view unpacked :
       {"direct", "fft", "depthwise", "unrolling-int8"}) {
    EXPECT_EQ(conv::engine(unpacked).pack_kind(), PackKind::kNone)
        << unpacked;
  }
}

TEST(EngineRegistry, EpilogueMatchesSeparatePassesOnEveryFp32Engine) {
  // One forward contract: relu(conv + bias) equals conv followed by the
  // bias add and the clamp, bit for bit — inside the write-back for the
  // engines that fuse it, as the base class's separate pass for the rest.
  const ConvConfig configs[] = {
      {.batch = 2, .input = 9, .channels = 3, .filters = 4, .kernel = 3,
       .stride = 1, .pad = 1},
      {.batch = 1, .input = 8, .channels = 4, .filters = 8, .kernel = 3,
       .stride = 2, .pad = 1, .groups = 4},
  };
  for (const ConvConfig& cfg : configs) {
    Rng rng(404);
    Tensor input(cfg.input_shape());
    input.fill_uniform(rng);
    Tensor filters(cfg.filter_shape());
    filters.fill_uniform(rng);
    std::vector<float> bias(cfg.filters);
    for (auto& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));

    for (const EngineEntry& entry : registry()) {
      if (entry.dtype != Dtype::kF32 || !entry.engine.supports(cfg)) continue;
      Tensor want(cfg.output_shape());
      entry.engine.forward(cfg, input, filters, want);
      const std::size_t plane = cfg.output() * cfg.output();
      for (std::size_t i = 0; i < want.count(); ++i) {
        float& v = want.data()[i];
        v = std::max(0.0F, v + bias[(i / plane) % cfg.filters]);
      }
      Tensor got(cfg.output_shape());
      entry.engine.forward(cfg, input, filters, got,
                           {.bias = bias, .relu = true});
      EXPECT_EQ(max_abs_diff(want, got), 0.0)
          << entry.name() << " on " << cfg.to_string();
    }
  }
}

}  // namespace
}  // namespace gpucnn::conv
