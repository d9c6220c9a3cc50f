// The common interface of the convolution engines that implement the
// strategies the paper surveys (§II.B): direct, unrolling-based (im2col +
// GEMM) and FFT-based, plus Winograd. conv/registry.hpp lists the
// tunable engines.
//
// Convolution follows the deep-learning convention (cross-correlation):
//   out(n,f,y,x) = sum_{c,ky,kx} in(n,c, y*s + ky - p, x*s + kx - p)
//                                * w(f,c,ky,kx)
// Every fp32 engine implements forward, backward-data and backward-filter
// passes and must agree bit-for-tolerance with the others; the agreement
// is enforced by parameterised tests and the conv fuzzer.
#pragma once

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

/// The weight layout an engine's forward can read ready-made instead of
/// re-deriving it from the filter tensor every call.
enum class PackKind {
  kNone,        ///< reads the filter tensor directly
  kGemm,        ///< per-group GEMM-A panels of W_g (F_g x CKK)
  kWinogradF2,  ///< transformed F(2x2,3x3) filters, one panel per position
  kWinogradF4,  ///< transformed F(4x4,3x3) filters, one panel per position
};

class ConvEngine;

/// A conv layer's filters packed once into blas micro-kernel panels
/// (blas/packed.hpp) of one PackKind. Immutable after construction, so
/// instances are shared by const reference / shared_ptr across serving
/// workers.
///
/// kGemm: one PackedMatrix per group whose origin is the caller's filter
/// tensor, which must outlive the pack (the layer owns both). Winograd
/// kinds: the pre-transformed filters U = G g G^T laid out
/// [alpha^2][F][C] in the owned `data`, one PackedMatrix per tile
/// position over it — owned here because the transformed values exist
/// nowhere else. Move-only: a copy would leave the copied panels' origin
/// spans pointing into the source's backing storage.
struct PackedFilters {
  PackKind kind = PackKind::kNone;
  std::vector<float> data;
  std::vector<blas::PackedMatrix> panels;

  /// The filter data the panels were packed from.
  const float* source = nullptr;

  PackedFilters() = default;
  PackedFilters(PackedFilters&&) = default;
  PackedFilters& operator=(PackedFilters&&) = default;
  PackedFilters(const PackedFilters&) = delete;
  PackedFilters& operator=(const PackedFilters&) = delete;

  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = data.size() * sizeof(float);
    for (const auto& p : panels) total += p.bytes();
    return total;
  }

  /// True when the pack was built from `filters` and holds the panels
  /// `engine`'s forward reads, packed for the SIMD level dispatched now.
  [[nodiscard]] bool serves(const ConvEngine& engine,
                            const Tensor& filters) const;
};

/// Packs `filters` (cfg.filter_shape()) in `consumer`'s pack kind: per
/// group, W_g(F_g x CKK) becomes the A operand of the forward GEMM; a
/// Winograd engine gets its tile size's transformed panels (none when
/// the config is not Winograd-eligible). An engine of kind kNone gets an
/// empty pack.
[[nodiscard]] PackedFilters prepack_filters(const ConvConfig& cfg,
                                            const Tensor& filters,
                                            const ConvEngine& consumer);

/// A forward's weight operand: the filter tensor plus, optionally, a pack
/// built from it. A pack that does not serve the engine is ignored (the
/// engine reads `filters`), so a stale or foreign pack degrades to the
/// staged path, never to a wrong answer.
struct Weights {
  // NOLINTNEXTLINE(google-explicit-constructor): a bare filter tensor
  // is unpacked weights.
  Weights(const Tensor& tensor, const PackedFilters* pack = nullptr)
      : filters(tensor), packed(pack) {}

  const Tensor& filters;
  const PackedFilters* packed;
};

/// What a forward does to each output element after the convolution:
/// add the per-filter bias (empty, or length cfg.filters), then clamp at
/// zero when `relu` is set.
struct Epilogue {
  std::span<const float> bias;
  bool relu = false;
};

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

  /// The prepacked layout forward() can read (kNone: it reads only the
  /// filter tensor).
  [[nodiscard]] virtual PackKind pack_kind() const { return PackKind::kNone; }

  /// output = relu?(conv(input, weights.filters) + bias). output must be
  /// pre-shaped to cfg.output_shape(); it is overwritten. Engines with a
  /// fused write-back apply the epilogue there; the others apply it as a
  /// separate add_bias + clamp pass — bit for bit the same result either
  /// way.
  void forward(const ConvConfig& cfg, const Tensor& input, Weights weights,
               Tensor& output, Epilogue epilogue = {}) const;

  /// grad_input must be pre-shaped to cfg.input_shape(); overwritten.
  virtual void backward_data(const ConvConfig& cfg, const Tensor& grad_output,
                             const Tensor& filters,
                             Tensor& grad_input) const = 0;

  /// grad_filters must be pre-shaped to cfg.filter_shape(); overwritten.
  virtual void backward_filter(const ConvConfig& cfg, const Tensor& input,
                               const Tensor& grad_output,
                               Tensor& grad_filters) const = 0;

 protected:
  /// The engine's forward, called with validated shapes and bias length.
  virtual void forward_impl(const ConvConfig& cfg, const Tensor& input,
                            Weights weights, Tensor& output,
                            Epilogue epilogue) const = 0;

  /// The separate epilogue pass for engines without a fused write-back:
  /// add_bias, then the ReLU clamp.
  static void apply_epilogue(const ConvConfig& cfg, Epilogue epilogue,
                             Tensor& output);

  /// `weights.packed` when it holds `count` panels of `kind`, else nullptr.
  [[nodiscard]] static const PackedFilters* usable_pack(Weights weights,
                                                        PackKind kind,
                                                        std::size_t count);
};

}  // namespace gpucnn::conv
