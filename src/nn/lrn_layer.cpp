#include "nn/lrn_layer.hpp"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.hpp"
#include "core/workspace.hpp"

namespace gpucnn::nn {
namespace {

/// b^-e in double. The e = 0.75 (every zoo model's beta) and e = 1.75
/// (its backward exponent) cases use square roots instead of std::pow,
/// which costs several times more per element.
double pow_neg(double b, double e) {
  if (e == 0.75) return 1.0 / std::sqrt(b * std::sqrt(b));
  if (e == 1.75) return 1.0 / (b * std::sqrt(b * std::sqrt(b)));
  return std::pow(b, -e);
}

}  // namespace

// Both passes run one pool task per (n, c) plane; a plane's window sum
// accumulates whole neighbour planes into a double row, so every inner
// loop is contiguous. Sums run over the window in ascending channel
// order, as the per-element formula does.

void LrnLayer::forward(const Tensor& in, Tensor& out) {
  const auto& s = in.shape();
  out.resize(s);
  scale_.resize(s);
  const std::size_t half = size_ / 2;
  const std::size_t hw = s.h * s.w;
  const double norm = alpha_ / static_cast<double>(size_);

  parallel_for(0, s.n * s.c, [&](std::size_t plane) {
    const std::size_t n = plane / s.c;
    const std::size_t c = plane % s.c;
    const std::size_t lo = c >= half ? c - half : 0;
    const std::size_t hi = std::min(c + half, s.c - 1);
    ws::Scratch<double> sum_sq(hw, /*zero=*/true);
    double* sum = sum_sq.data();
    for (std::size_t cc = lo; cc <= hi; ++cc) {
      const float* src = in.plane(n, cc);
      for (std::size_t i = 0; i < hw; ++i) {
        const double v = src[i];
        sum[i] += v * v;
      }
    }
    const float* x = in.plane(n, c);
    float* b_out = scale_.plane(n, c);
    float* y = out.plane(n, c);
    for (std::size_t i = 0; i < hw; ++i) {
      const double b = k_ + norm * sum[i];
      b_out[i] = static_cast<float>(b);
      y[i] = static_cast<float>(x[i] * pow_neg(b, beta_));
    }
  });
}

void LrnLayer::backward(const Tensor& in, const Tensor& grad_out,
                        Tensor& grad_in) {
  const auto& s = in.shape();
  check(grad_out.shape() == s, "lrn: grad_out shape mismatch");
  check(scale_.shape() == s, "lrn: backward before forward");
  grad_in.resize(s);
  const std::size_t half = size_ / 2;
  const std::size_t hw = s.h * s.w;
  const double norm = alpha_ / static_cast<double>(size_);

  // gin(c'') = gout(c'') * b(c'')^-beta
  //          - 2*beta*norm*in(c'') * sum_{c: |c-c''|<=half}
  //            gout(c)*in(c)*b(c)^(-beta-1)
  // The summand depends only on c, so it is computed once per element
  // rather than once per window it falls in.
  ws::Scratch<double> terms(s.n * s.c * hw);
  parallel_for(0, s.n * s.c, [&](std::size_t plane) {
    const std::size_t n = plane / s.c;
    const std::size_t c = plane % s.c;
    const float* g = grad_out.plane(n, c);
    const float* x = in.plane(n, c);
    const float* b = scale_.plane(n, c);
    double* t = terms.data() + plane * hw;
    for (std::size_t i = 0; i < hw; ++i) {
      t[i] = static_cast<double>(g[i]) * x[i] *
             pow_neg(static_cast<double>(b[i]), beta_ + 1.0);
    }
  });

  parallel_for(0, s.n * s.c, [&](std::size_t plane) {
    const std::size_t n = plane / s.c;
    const std::size_t ct = plane % s.c;
    const std::size_t lo = ct >= half ? ct - half : 0;
    const std::size_t hi = std::min(ct + half, s.c - 1);
    ws::Scratch<double> cross_sum(hw, /*zero=*/true);
    double* cross = cross_sum.data();
    for (std::size_t c = lo; c <= hi; ++c) {
      const double* t = terms.data() + (n * s.c + c) * hw;
      for (std::size_t i = 0; i < hw; ++i) cross[i] += t[i];
    }
    const float* g = grad_out.plane(n, ct);
    const float* x = in.plane(n, ct);
    const float* b = scale_.plane(n, ct);
    float* gin = grad_in.plane(n, ct);
    for (std::size_t i = 0; i < hw; ++i) {
      const double direct =
          static_cast<double>(g[i]) * pow_neg(static_cast<double>(b[i]),
                                              beta_);
      gin[i] = static_cast<float>(direct -
                                  2.0 * beta_ * norm * x[i] * cross[i]);
    }
  });
}

}  // namespace gpucnn::nn
