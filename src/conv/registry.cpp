#include "conv/registry.hpp"

#include <string>

#include "conv/depthwise_conv.hpp"
#include "conv/direct_conv.hpp"
#include "conv/fft_conv.hpp"
#include "conv/gemm_conv.hpp"
#include "conv/quantized_conv.hpp"
#include "conv/winograd_conv.hpp"
#include "core/error.hpp"

namespace gpucnn::conv {

std::span<const EngineEntry> registry() {
  static const DirectConv direct;
  static const GemmConv unrolling;
  static const FftConv fft;  // half-spectrum
  static const WinogradConv winograd;
  static const DepthwiseConv depthwise;
  static const WinogradConv winograd_f4(WinogradTile::kF4);
  static const QuantizedGemmConv unrolling_int8;
  static const EngineEntry table[] = {
      {direct, Dtype::kF32, true},
      {unrolling, Dtype::kF32, true},
      {fft, Dtype::kF32, true},
      {winograd, Dtype::kF32, true},
      {depthwise, Dtype::kF32, true},
      {winograd_f4, Dtype::kF32, true},
      {unrolling_int8, Dtype::kInt8, false},
  };
  return table;
}

const EngineEntry* find_engine(std::string_view name) {
  for (const EngineEntry& e : registry()) {
    if (e.name() == name) return &e;
  }
  return nullptr;
}

const ConvEngine& engine(std::string_view name) {
  const EngineEntry* e = find_engine(name);
  if (e == nullptr) {
    throw Error("unknown convolution engine '" + std::string(name) + "'");
  }
  return e->engine;
}

std::optional<Strategy> strategy_named(std::string_view name) {
  const EngineEntry* e = find_engine(name);
  if (e == nullptr || to_string(e->engine.strategy()) != name) {
    return std::nullopt;
  }
  return e->engine.strategy();
}

}  // namespace gpucnn::conv
