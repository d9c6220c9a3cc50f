#include "quant/quant.hpp"

#include <algorithm>
#include <cmath>

#include "core/cpu_features.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"

#if GPUCNN_X86_SIMD
#include <immintrin.h>
#endif

namespace gpucnn::quant {
namespace {

obs::Counter& weight_channels_counter() {
  static obs::Counter& c = obs::metrics().counter("quant.weights.channels");
  return c;
}

obs::Counter& act_tensors_counter() {
  static obs::Counter& c = obs::metrics().counter("quant.acts.tensors");
  return c;
}

obs::Counter& act_clipped_counter() {
  static obs::Counter& c = obs::metrics().counter("quant.acts.clipped");
  return c;
}

// Round-to-nearest (ties away from zero, like std::lround) of x/scale,
// clamped into [0, 255] after the zero-point shift. The comparison
// happens in float space so an arbitrarily large x never reaches a
// float->int conversion it cannot represent (that would be UB). For the
// guarded positive range, floor(x + 0.5) — spelled as a truncating
// cast — equals std::lround; the cast keeps the bulk loop free of libm
// calls so it auto-vectorizes.
std::uint8_t quantize_act_impl(float x, const ActQuant& q) {
  const float shifted =
      x / q.scale + static_cast<float>(q.zero_point);
  if (!(shifted > 0.0F)) return 0;  // also catches NaN
  if (shifted >= 255.0F) return 255;
  return static_cast<std::uint8_t>(
      static_cast<std::int32_t>(shifted + 0.5F));
}

/// Does this element count as clipped? An endpoint value that would
/// round outside [0, 255] does; an endpoint reached exactly does not.
inline bool act_clipped(float shifted) {
  return shifted < -0.5F || shifted >= 255.5F;
}

#if GPUCNN_X86_SIMD
// 8-lane AVX2 twin of quantize_act_impl, bit-identical to the scalar
// path: same division, the clamp in float space before any conversion
// (vmaxps/vminps return their second operand on NaN, so NaN lanes
// become 0 exactly like the scalar `!(shifted > 0)` guard), and
// truncation of shifted + 0.5 for the round.
__attribute__((target("avx2"))) std::size_t quantize_acts_avx2(
    const float* src, std::size_t n, const ActQuant& q,
    std::uint8_t* dst) {
  const __m256 scale = _mm256_set1_ps(q.scale);
  const __m256 zp = _mm256_set1_ps(static_cast<float>(q.zero_point));
  const __m256 zero = _mm256_setzero_ps();
  const __m256 top = _mm256_set1_ps(255.0F);
  const __m256 half = _mm256_set1_ps(0.5F);
  const __m256 clip_lo = _mm256_set1_ps(-0.5F);
  const __m256 clip_hi = _mm256_set1_ps(255.5F);
  std::size_t clipped = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(src + i);
    const __m256 shifted =
        _mm256_add_ps(_mm256_div_ps(x, scale), zp);
    const __m256 clamped =
        _mm256_min_ps(_mm256_max_ps(shifted, zero), top);
    const __m256i q32 =
        _mm256_cvttps_epi32(_mm256_add_ps(clamped, half));
    const __m128i p16 =
        _mm_packus_epi32(_mm256_castsi256_si128(q32),
                         _mm256_extracti128_si256(q32, 1));
    const __m128i p8 = _mm_packus_epi16(p16, p16);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), p8);
    const __m256 out_of_range = _mm256_or_ps(
        _mm256_cmp_ps(shifted, clip_lo, _CMP_LT_OQ),
        _mm256_cmp_ps(shifted, clip_hi, _CMP_GE_OQ));
    clipped += static_cast<std::size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_ps(out_of_range))));
  }
  for (; i < n; ++i) {
    dst[i] = quantize_act_impl(src[i], q);
    const float shifted =
        src[i] / q.scale + static_cast<float>(q.zero_point);
    clipped += act_clipped(shifted) ? 1 : 0;
  }
  return clipped;
}
#endif  // GPUCNN_X86_SIMD

}  // namespace

void validate(const ActQuant& q) {
  check(std::isfinite(q.scale) && q.scale > 0.0F,
        "activation scale must be positive and finite");
  check(q.zero_point >= 0 && q.zero_point <= kActQMax,
        "activation zero point must lie in [0, 255]");
}

ActQuant choose_act_quant(float lo, float hi) {
  check(std::isfinite(lo) && std::isfinite(hi) && lo <= hi,
        "activation range must be finite and ordered");
  // Widen to include zero so padding (real 0.0) quantizes exactly to
  // the zero point.
  lo = std::min(lo, 0.0F);
  hi = std::max(hi, 0.0F);
  const float range = hi - lo;
  if (range <= 0.0F) return ActQuant{1.0F, 0};
  ActQuant q;
  q.scale = range / static_cast<float>(kActQMax);
  q.zero_point = static_cast<std::int32_t>(std::lround(-lo / q.scale));
  q.zero_point = std::clamp(q.zero_point, 0, kActQMax);
  return q;
}

ActQuant choose_act_quant(std::span<const float> values) {
  check(!values.empty(), "activation range of an empty tensor");
  float lo = values[0];
  float hi = values[0];
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return choose_act_quant(lo, hi);
}

std::uint8_t quantize_act(float x, const ActQuant& q) {
  validate(q);
  return quantize_act_impl(x, q);
}

std::size_t quantize_acts(std::span<const float> src, const ActQuant& q,
                          std::span<std::uint8_t> dst) {
  check(dst.size() >= src.size(), "quantize_acts destination too small");
  validate(q);
  std::size_t clipped = 0;
#if GPUCNN_X86_SIMD
  if (simd::active() == simd::Level::kAvx2) {
    clipped = quantize_acts_avx2(src.data(), src.size(), q, dst.data());
    act_tensors_counter().add(1);
    act_clipped_counter().add(static_cast<std::int64_t>(clipped));
    return clipped;
  }
#endif
  for (std::size_t i = 0; i < src.size(); ++i) {
    const std::uint8_t v = quantize_act_impl(src[i], q);
    // A value that landed on an endpoint *and* would round outside the
    // range counts as clipped; endpoints reached exactly do not.
    const float shifted =
        src[i] / q.scale + static_cast<float>(q.zero_point);
    clipped += act_clipped(shifted) ? 1 : 0;
    dst[i] = v;
  }
  act_tensors_counter().add(1);
  act_clipped_counter().add(static_cast<std::int64_t>(clipped));
  return clipped;
}

std::uint8_t requantize(float x, const ActQuant& out) {
  validate(out);
  return quantize_act_impl(x, out);
}

QuantizedFilters quantize_filters(std::span<const float> w, std::size_t rows,
                                  std::size_t cols) {
  check(w.size() == rows * cols, "weight matrix size mismatch");
  QuantizedFilters q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(rows * cols);
  q.scales.resize(rows);
  q.row_sums.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w.data() + r * cols;
    float absmax = 0.0F;
    for (std::size_t c = 0; c < cols; ++c) {
      absmax = std::max(absmax, std::fabs(row[c]));
    }
    check(std::isfinite(absmax), "weights must be finite to quantize");
    const float scale =
        absmax > 0.0F ? absmax / static_cast<float>(kWeightQMax) : 1.0F;
    q.scales[r] = scale;
    std::int32_t sum = 0;
    std::int8_t* qrow = q.data.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      const auto v = static_cast<std::int32_t>(std::lround(row[c] / scale));
      const std::int32_t clamped = std::clamp(v, -kWeightQMax, kWeightQMax);
      qrow[c] = static_cast<std::int8_t>(clamped);
      sum += clamped;
    }
    q.row_sums[r] = sum;
  }
  weight_channels_counter().add(static_cast<std::int64_t>(rows));
  return q;
}

void Observer::observe(std::span<const float> values) {
  if (values.empty()) return;
  float lo = values[0];
  float hi = values[0];
  float absmax = 0.0F;
  for (const float v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    absmax = std::max(absmax, std::fabs(v));
  }
  check(std::isfinite(lo) && std::isfinite(hi),
        "calibration values must be finite");
  min_ = count_ == 0 ? lo : std::min(min_, lo);
  max_ = count_ == 0 ? hi : std::max(max_, hi);
  if (kind_ == Kind::kPercentile) {
    // Grow the histogram range by powers of two, folding existing bins
    // pairwise so earlier observations keep their (coarsened) place.
    while (absmax > bin_top_) {
      for (std::size_t i = 0; i < kBins / 2; ++i) {
        bins_[i] = bins_[2 * i] + bins_[2 * i + 1];
      }
      std::fill(bins_.begin() + kBins / 2, bins_.end(), std::int64_t{0});
      bin_top_ *= 2.0F;
    }
    const float inv_width = static_cast<float>(kBins) / bin_top_;
    for (const float v : values) {
      auto bin = static_cast<std::size_t>(std::fabs(v) * inv_width);
      if (bin >= kBins) bin = kBins - 1;
      ++bins_[bin];
    }
  }
  count_ += values.size();
}

ActQuant Observer::quant() const {
  check(count_ > 0, "observer has seen no values");
  if (kind_ == Kind::kMinMax) return choose_act_quant(min_, max_);
  // Percentile: walk |x| bins until kPercentile of the mass is covered,
  // clip the raw range to that magnitude.
  const auto target = static_cast<double>(count_) * kPercentile;
  double covered = 0.0;
  std::size_t cut = kBins;
  for (std::size_t i = 0; i < kBins; ++i) {
    covered += static_cast<double>(bins_[i]);
    if (covered >= target) {
      cut = i + 1;
      break;
    }
  }
  const float clip =
      bin_top_ * static_cast<float>(cut) / static_cast<float>(kBins);
  return choose_act_quant(std::max(min_, -clip), std::min(max_, clip));
}

}  // namespace gpucnn::quant
