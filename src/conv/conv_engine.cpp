#include "conv/conv_engine.hpp"

#include "blas/vector_ops.hpp"
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
                              const ConvEngine& consumer) {
  check(filters.shape() == cfg.filter_shape(), "filter shape mismatch");
  PackedFilters packed;
  packed.kind = consumer.pack_kind();
  packed.source = filters.data().data();
  switch (packed.kind) {
    case PackKind::kNone:
      break;
    case PackKind::kGemm: {
      const std::size_t group_filters = cfg.group_filters();
      const std::size_t ckk = cfg.group_channels() * cfg.kernel * cfg.kernel;
      packed.panels.reserve(cfg.groups);
      for (std::size_t g = 0; g < cfg.groups; ++g) {
        packed.panels.push_back(blas::pack_a(
            blas::Trans::kNo, group_filters, ckk,
            {filters.plane(g * group_filters, 0), group_filters * ckk}, ckk));
      }
      break;
    }
    case PackKind::kWinogradF2:
    case PackKind::kWinogradF4:
      if (consumer.supports(cfg)) {
        prepack_winograd_filters(cfg, filters,
                                 packed.kind == PackKind::kWinogradF2
                                     ? WinogradTile::kF2
                                     : WinogradTile::kF4,
                                 packed.data, packed.panels);
      }
      break;
  }
  return packed;
}

bool PackedFilters::serves(const ConvEngine& engine,
                           const Tensor& filters) const {
  return source == filters.data().data() && kind == engine.pack_kind() &&
         !panels.empty() && panels.front().valid();
}

void ConvEngine::forward(const ConvConfig& cfg, const Tensor& input,
                         Weights weights, Tensor& output,
                         Epilogue epilogue) const {
  check(input.shape() == cfg.input_shape(), "input shape mismatch");
  check(weights.filters.shape() == cfg.filter_shape(),
        "filter shape mismatch");
  check(output.shape() == cfg.output_shape(), "output shape mismatch");
  check(epilogue.bias.empty() || epilogue.bias.size() == cfg.filters,
        "fused bias length must equal the filter count");
  forward_impl(cfg, input, weights, output, epilogue);
}

void ConvEngine::apply_epilogue(const ConvConfig& cfg, Epilogue epilogue,
                                Tensor& output) {
  if (!epilogue.bias.empty()) {
    blas::add_bias(output.data(), epilogue.bias, cfg.batch, cfg.filters,
                   cfg.output() * cfg.output());
  }
  if (epilogue.relu) {
    for (float& v : output.data()) v = v > 0.0F ? v : 0.0F;
  }
}

const PackedFilters* ConvEngine::usable_pack(Weights weights, PackKind kind,
                                             std::size_t count) {
  const PackedFilters* packed = weights.packed;
  return packed != nullptr && packed->kind == kind &&
                 packed->panels.size() == count
             ? packed
             : nullptr;
}

}  // namespace gpucnn::conv
