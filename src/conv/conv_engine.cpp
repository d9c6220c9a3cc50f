#include "conv/conv_engine.hpp"

#include "conv/direct_conv.hpp"
#include "conv/fft_conv.hpp"
#include "conv/gemm_conv.hpp"
#include "conv/winograd_conv.hpp"

namespace gpucnn::conv {

std::string_view to_string(Strategy s) {
  switch (s) {
    case Strategy::kDirect:
      return "direct";
    case Strategy::kUnrolling:
      return "unrolling";
    case Strategy::kFft:
      return "fft";
    case Strategy::kWinograd:
      return "winograd";
  }
  return "unknown";
}

PackedFilters prepack_filters(const ConvConfig& cfg, const Tensor& filters,
                              const ConvEngine* consumer) {
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  const auto* winograd = dynamic_cast<const WinogradConv*>(consumer);
  const auto wants_winograd = [&](WinogradTile tile) {
    return consumer == nullptr ||
           (winograd != nullptr && winograd->tile() == tile);
  };
  PackedFilters packed;
  packed.source = filters.data().data();
  if (consumer == nullptr ||
      (winograd == nullptr && consumer->supports_prepack())) {
    const std::size_t group_filters = cfg.group_filters();
    const std::size_t ckk =
        cfg.group_channels() * cfg.kernel * cfg.kernel;
    packed.groups.reserve(cfg.groups);
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      packed.groups.push_back(blas::pack_a(
          blas::Trans::kNo, group_filters, ckk,
          {filters.plane(g * group_filters, 0), group_filters * ckk}, ckk));
    }
  }
  if (WinogradConv{}.supports(cfg)) {
    if (wants_winograd(WinogradTile::kF2)) {
      prepack_winograd_filters(cfg, filters, WinogradTile::kF2,
                               packed.winograd_f2_data, packed.winograd_f2);
    }
    if (wants_winograd(WinogradTile::kF4)) {
      prepack_winograd_filters(cfg, filters, WinogradTile::kF4,
                               packed.winograd_f4_data, packed.winograd_f4);
    }
  }
  return packed;
}

bool PackedFilters::serves(const ConvEngine& engine,
                           const Tensor& filters) const {
  if (source != filters.data().data()) return false;
  const auto* winograd = dynamic_cast<const WinogradConv*>(&engine);
  const auto& panels = winograd == nullptr ? groups
                       : winograd->tile() == WinogradTile::kF2
                           ? winograd_f2
                           : winograd_f4;
  return !panels.empty() && panels.front().valid();
}

void ConvEngine::validate_forward(const ConvConfig& cfg, const Tensor& input,
                                  const Tensor& filters,
                                  const Tensor& output) {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  check(output.shape() == cfg.output_shape(), "output shape mismatch");
}

std::unique_ptr<ConvEngine> make_engine(Strategy strategy) {
  switch (strategy) {
    case Strategy::kDirect:
      return std::make_unique<DirectConv>();
    case Strategy::kUnrolling:
      return std::make_unique<GemmConv>();
    case Strategy::kFft:
      return std::make_unique<FftConv>();
    case Strategy::kWinograd:
      return std::make_unique<WinogradConv>();
  }
  check(false, "unknown convolution strategy");
  return nullptr;
}

}  // namespace gpucnn::conv
