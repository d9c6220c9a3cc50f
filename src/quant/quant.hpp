// Int8 quantization primitives for the inference fast path.
//
// The scheme follows the gemmlowp/QNNPACK convention the int8 GEMM in
// src/blas/igemm.* consumes:
//
//   * Weights: per-output-channel symmetric int8. Each filter row f gets
//     its own scale w_scale[f] = absmax_f / kWeightQMax and quantizes to
//     q = round(w / w_scale) in [-kWeightQMax, kWeightQMax]. The range is
//     deliberately ±63 (7 bits), not ±127: the AVX2 kernel multiplies
//     u8 activations against s8 weights with _mm256_maddubs_epi16, which
//     *saturates* its int16 pair sums. With |w_q| <= 63 the worst pair
//     sum is 255*63*2 = 32130 < 32767, so the kernel is exact; the
//     per-channel scales win back most of the lost bit.
//   * Activations: per-tensor asymmetric uint8 with a zero point:
//     q = round(x / scale) + zero_point, zero_point in [0, 255] so that
//     real 0.0 (and thus zero padding) is exactly representable.
//
// The integer accumulator then satisfies
//   sum_k a_q[k] * w_q[k]  =  sum_k (x[k]/s_a + zp) * w_q[k]
// so the real dot product is recovered as
//   s_a * s_w[f] * (acc - zp * row_sum_w[f])
// which is why QuantizedFilters carries per-row q-weight sums.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gpucnn::quant {

/// Largest quantized weight magnitude. Kept at 63 so the AVX2 maddubs
/// path cannot saturate its int16 intermediates (see header comment).
inline constexpr std::int32_t kWeightQMax = 63;

/// uint8 activation range.
inline constexpr std::int32_t kActQMax = 255;

/// Per-tensor asymmetric uint8 activation quantization parameters.
/// quantize(x) = clamp(round(x / scale) + zero_point, 0, 255).
struct ActQuant {
  float scale = 1.0F;
  std::int32_t zero_point = 0;
};

/// Validates an ActQuant: scale must be positive and finite, the zero
/// point must lie in [0, 255] (a negative zero point cannot arise from
/// choose_act_quant and would silently corrupt the zero-point
/// correction). Throws Error on violation.
void validate(const ActQuant& q);

/// Chooses activation parameters covering [lo, hi]. The range is first
/// widened to include 0 so that zero padding quantizes exactly to the
/// zero point; degenerate ranges get scale 1.
[[nodiscard]] ActQuant choose_act_quant(float lo, float hi);

/// Chooses activation parameters covering the min/max of `values`: the
/// dynamic per-batch range of an uncalibrated quantized conv. Throws
/// Error on an empty span.
[[nodiscard]] ActQuant choose_act_quant(std::span<const float> values);

/// Saturating uint8 cast of an already-shifted integer value.
[[nodiscard]] inline std::uint8_t saturate_u8(std::int32_t v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

/// Saturating int8 cast.
[[nodiscard]] inline std::int8_t saturate_s8(std::int32_t v) {
  return static_cast<std::int8_t>(v < -128 ? -128 : (v > 127 ? 127 : v));
}

/// Quantizes one activation value (round-to-nearest, saturating).
[[nodiscard]] std::uint8_t quantize_act(float x, const ActQuant& q);

/// Dequantizes one activation value.
[[nodiscard]] inline float dequantize_act(std::uint8_t v, const ActQuant& q) {
  return (static_cast<std::int32_t>(v) - q.zero_point) * q.scale;
}

/// Bulk activation quantization: dst[i] = quantize_act(src[i], q).
/// Returns the number of values that clipped to the ends of the uint8
/// range (also accumulated into the quant.acts.clipped counter).
std::size_t quantize_acts(std::span<const float> src, const ActQuant& q,
                          std::span<std::uint8_t> dst);

/// Re-quantizes a dequantized real value into uint8 under `out`:
/// q = clamp(round(x / out.scale) + out.zero_point, 0, 255). Safe for
/// any finite x (the clamp happens before the float->int conversion, so
/// an out-of-range accumulator cannot invoke UB).
[[nodiscard]] std::uint8_t requantize(float x, const ActQuant& out);

/// Per-output-channel symmetrically quantized weight matrix, row-major
/// rows x cols (for convolution: rows = filters of one group, cols =
/// group_channels * k * k).
struct QuantizedFilters {
  std::vector<std::int8_t> data;      ///< rows x cols, |value| <= kWeightQMax
  std::vector<float> scales;          ///< per-row scale, length rows
  std::vector<std::int32_t> row_sums; ///< per-row sum of quantized weights
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// Quantizes a row-major rows x cols fp32 weight matrix per row
/// (per output channel). All-zero rows get scale 1 and all-zero codes.
[[nodiscard]] QuantizedFilters quantize_filters(std::span<const float> w,
                                                std::size_t rows,
                                                std::size_t cols);

/// Dequantizes one quantized weight.
[[nodiscard]] inline float dequantize_weight(std::int8_t q, float scale) {
  return static_cast<float>(q) * scale;
}

/// Calibration observer: accumulates the value range of every tensor it
/// sees. kMinMax keeps the raw extremes; kPercentile additionally keeps
/// a histogram of |x| (1024 bins, power-of-two range doubling) and clips
/// the range to the 99.9th percentile of |x|, shrugging off outliers.
class Observer {
 public:
  enum class Kind { kMinMax, kPercentile };
  static constexpr std::size_t kBins = 1024;
  static constexpr double kPercentile = 0.999;

  explicit Observer(Kind kind = Kind::kMinMax) : kind_(kind) {}

  void observe(std::span<const float> values);
  [[nodiscard]] bool seen() const { return count_ > 0; }
  [[nodiscard]] float min() const { return min_; }
  [[nodiscard]] float max() const { return max_; }

  /// Activation parameters for the observed range (percentile-clipped
  /// when kind is kPercentile). Requires seen().
  [[nodiscard]] ActQuant quant() const;

 private:
  Kind kind_;
  std::size_t count_ = 0;
  float min_ = 0.0F;
  float max_ = 0.0F;
  float bin_top_ = 1.0F;  ///< |x| covered by the histogram; doubles on overflow
  std::vector<std::int64_t> bins_ = std::vector<std::int64_t>(kBins, 0);
};

}  // namespace gpucnn::quant
