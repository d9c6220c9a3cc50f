// GoogLeNet inception module as a composite layer: four branches over
// the same input, concatenated along channels. Packaging the
// branch/join inside one Layer keeps the Network container sequential
// while making GoogLeNet — the paper's Fig. 2 concat model — fully
// executable.
//
// Branches (Szegedy et al.):
//   1x1 conv          -> relu
//   1x1 reduce -> relu -> 3x3 conv (pad 1) -> relu
//   1x1 reduce -> relu -> 5x5 conv (pad 2) -> relu
//   3x3 max pool (stride 1, pad 1) -> 1x1 proj -> relu
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"

namespace gpucnn::nn {

/// Filter counts of one inception module.
struct InceptionParams {
  const char* name;
  std::size_t c1;          ///< 1x1 branch
  std::size_t c3_reduce;   ///< 3x3 branch reducer
  std::size_t c3;          ///< 3x3 branch
  std::size_t c5_reduce;   ///< 5x5 branch reducer
  std::size_t c5;          ///< 5x5 branch
  std::size_t pool_proj;   ///< pool branch projection

  [[nodiscard]] std::size_t output_channels() const {
    return c1 + c3 + c5 + pool_proj;
  }
};

/// The nine GoogLeNet modules (3a..5b), in network order.
[[nodiscard]] std::span<const InceptionParams> googlenet_inceptions();

class InceptionLayer final : public Layer {
 public:
  /// `in_channels`/`spatial` fix the expected input geometry.
  InceptionLayer(std::string name, std::size_t in_channels,
                 std::size_t spatial, const InceptionParams& params);
  ~InceptionLayer() override;

  [[nodiscard]] std::string_view type() const override {
    return "inception";
  }
  [[nodiscard]] TensorShape output_shape(const TensorShape& in)
      const override;

  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;

  [[nodiscard]] std::vector<Tensor*> parameters() override;
  [[nodiscard]] std::vector<Tensor*> gradients() override;
  void initialize(Rng& rng) override;
  void set_training(bool training) override;
  void set_auto_tune(bool on) override;
  /// Packs the filters of every branch conv (ConvLayer's contract).
  void freeze_for_inference() override;
  /// Adopts `owner`'s branch packs layer by layer, in every branch
  /// whose layer list matches `owner`'s (both fused alike).
  void adopt_prepack(const Layer& owner) override;
  /// Fuses the conv -> ReLU pairs inside every branch.
  std::size_t fuse_relu_pairs() override;

  [[nodiscard]] const InceptionParams& params() const { return params_; }

 private:
  struct Branch;

  std::size_t in_channels_;
  std::size_t spatial_;
  InceptionParams params_;
  std::array<std::unique_ptr<Branch>, 4> branches_;
};

}  // namespace gpucnn::nn
