// The common interface of the three convolution strategies the paper
// surveys (§II.B): direct, unrolling-based (im2col + GEMM) and FFT-based.
//
// Convolution follows the deep-learning convention (cross-correlation):
//   out(n,f,y,x) = sum_{c,ky,kx} in(n,c, y*s + ky - p, x*s + kx - p)
//                                * w(f,c,ky,kx)
// All three engines implement forward, backward-data and backward-filter
// passes and must agree bit-for-tolerance with each other; the agreement
// is enforced by parameterised tests.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "blas/packed.hpp"
#include "core/shape.hpp"
#include "core/tensor.hpp"

namespace gpucnn::conv {

/// The paper's three convolution strategies, plus Winograd minimal
/// filtering — the post-paper fourth strategy (Lavin & Gray) this
/// reproduction adds as an extension.
enum class Strategy { kDirect, kUnrolling, kFft, kWinograd };

[[nodiscard]] std::string_view to_string(Strategy s);

class ConvEngine;

/// A conv layer's filters packed once into blas micro-kernel panels
/// (blas/packed.hpp), one PackedMatrix per group — the GEMM engines'
/// weight operand. Immutable after construction, so instances are shared
/// by const reference / shared_ptr across serving workers; each pack
/// retains a span over the filter tensor it was built from, which must
/// outlive the pack (the layer owns both).
struct PackedFilters {
  std::vector<blas::PackedMatrix> groups;

  /// Winograd scattered-GEMM panels: pre-transformed filters U = G g G^T
  /// laid out [alpha^2][F][C], one PackedMatrix per tile position over
  /// the owned backing buffer. Built only for Winograd-eligible configs
  /// (k=3, s=1, pad <= 2, ungrouped) and the tile sizes prepack_filters
  /// was asked for; empty otherwise. The backing
  /// vectors are owned here because — unlike the GEMM groups, whose
  /// origin is the caller's filter tensor — the transformed values exist
  /// nowhere else. Move-only: a copy would leave the copied panels'
  /// origin spans pointing into the source's backing storage.
  std::vector<float> winograd_f2_data;
  std::vector<blas::PackedMatrix> winograd_f2;
  std::vector<float> winograd_f4_data;
  std::vector<blas::PackedMatrix> winograd_f4;

  /// The filter data the panels were packed from.
  const float* source = nullptr;

  PackedFilters() = default;
  PackedFilters(PackedFilters&&) = default;
  PackedFilters& operator=(PackedFilters&&) = default;
  PackedFilters(const PackedFilters&) = delete;
  PackedFilters& operator=(const PackedFilters&) = delete;

  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = 0;
    for (const auto& g : groups) total += g.bytes();
    for (const auto& t : winograd_f2) total += t.bytes();
    for (const auto& t : winograd_f4) total += t.bytes();
    total += (winograd_f2_data.size() + winograd_f4_data.size()) *
             sizeof(float);
    return total;
  }

  /// True when the pack was built from `filters` and holds the panels
  /// `engine`'s forward_prepacked reads, packed for the SIMD level
  /// dispatched now.
  [[nodiscard]] bool serves(const ConvEngine& engine,
                            const Tensor& filters) const;
};

/// Packs `filters` (cfg.filter_shape()) for the prepack-capable engines:
/// per group, W_g(F_g x CKK) becomes the A operand of the forward GEMM,
/// and Winograd-eligible configs get both tile sizes' transformed
/// panels. Given a `consumer`, only the panels that engine's
/// forward_prepacked reads are built (none for an engine without a
/// prepacked path). Engines consume the result through
/// forward_prepacked().
[[nodiscard]] PackedFilters prepack_filters(
    const ConvConfig& cfg, const Tensor& filters,
    const ConvEngine* consumer = nullptr);

/// A convolution implementation: stateless and thread-compatible; all
/// buffers are caller-owned.
class ConvEngine {
 public:
  virtual ~ConvEngine() = default;

  [[nodiscard]] virtual Strategy strategy() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True when the engine can run this configuration (e.g. FFT engines
  /// require stride 1).
  [[nodiscard]] virtual bool supports(const ConvConfig& cfg) const = 0;

  /// output must be pre-shaped to cfg.output_shape(); it is overwritten.
  virtual void forward(const ConvConfig& cfg, const Tensor& input,
                       const Tensor& filters, Tensor& output) const = 0;

  /// Fused forward: output = relu?(conv(input, filters) + bias), with the
  /// per-filter bias broadcast (length cfg.filters) and the optional ReLU
  /// applied inside the engine's own write-back — bit-for-bit identical
  /// to forward() followed by the separate bias/activation passes.
  /// Returns false when the engine has no fused path (the default); the
  /// caller then runs the unfused sequence itself.
  [[nodiscard]] virtual bool forward_fused(const ConvConfig&, const Tensor&,
                                           const Tensor&,
                                           std::span<const float> /*bias*/,
                                           bool /*relu*/, Tensor&) const {
    return false;
  }

  /// True when the engine can consume prepack_filters() output via
  /// forward_prepacked() — the pack-once/execute-many inference path.
  [[nodiscard]] virtual bool supports_prepack() const { return false; }

  /// Fused forward over prepacked filters: bit-identical to
  /// forward_fused(cfg, input, filters, bias, relu, output), reading the
  /// weight panels from `packed` instead of re-packing per GEMM call.
  /// `filters` stays the fallback operand: a stale pack (SIMD dispatch
  /// changed since packing) or shape-mismatched pack degrades to the
  /// staged path inside blas, never to a wrong answer. Returns false when
  /// the engine has no prepacked path (the default); the caller then runs
  /// forward_fused / the unfused sequence itself.
  [[nodiscard]] virtual bool forward_prepacked(
      const ConvConfig&, const Tensor&, const PackedFilters& /*packed*/,
      const Tensor& /*filters*/, std::span<const float> /*bias*/,
      bool /*relu*/, Tensor&) const {
    return false;
  }

  /// grad_input must be pre-shaped to cfg.input_shape(); overwritten.
  virtual void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                             const Tensor& filters,
                             Tensor& grad_input) const = 0;

  /// grad_filters must be pre-shaped to cfg.filter_shape(); overwritten.
  virtual void backward_filter(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& grad_output,
                               Tensor& grad_filters) const = 0;

 protected:
  /// Shared argument validation for the three passes.
  static void validate_forward(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& filters, const Tensor& output);
};

/// Factory for the built-in engines.
[[nodiscard]] std::unique_ptr<ConvEngine> make_engine(Strategy strategy);

}  // namespace gpucnn::conv
