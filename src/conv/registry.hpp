// The tunable engine table: every convolution engine the autotuner can
// pick, in one ordered list that the tuner, the layers, the fuzzer and
// the tools enumerate or look up by name. Adding an engine means one
// ConvEngine subclass plus one row in registry().
//
// The order is the tuner's pool order (the tail of its search order)
// and the "engines" header of every tune cache, so any change to the
// rows invalidates older caches — as it must: they never timed the new
// set. The full-spectrum FFT ("fft-complex") is not a row: it exists as
// the fuzzer's and tests' cross-check reference only.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "conv/conv_engine.hpp"

namespace gpucnn::conv {

/// Numeric flavour of an engine's arithmetic. Int8 engines quantize
/// internally (fp32 in, fp32 out), so only callers that have accepted
/// quantization error may run them.
enum class Dtype { kF32, kInt8 };

/// One row of the engine table.
struct EngineEntry {
  const ConvEngine& engine;
  Dtype dtype;
  bool backward;  ///< implements backward_data and backward_filter

  [[nodiscard]] std::string_view name() const { return engine.name(); }
};

/// Every tunable engine in pool order: direct, unrolling, fft, winograd,
/// depthwise, winograd-f4, unrolling-int8.
[[nodiscard]] std::span<const EngineEntry> registry();

/// The row named `name`, or nullptr.
[[nodiscard]] const EngineEntry* find_engine(std::string_view name);

/// The engine named `name`; throws Error for a name not in the table.
[[nodiscard]] const ConvEngine& engine(std::string_view name);

/// The strategy whose static engine (the one a ConvLayer built with that
/// strategy runs) is named `name` — "direct", "unrolling", "fft" or
/// "winograd" — or nullopt for any other name. CLIs parse a strategy
/// argument with this.
[[nodiscard]] std::optional<Strategy> strategy_named(std::string_view name);

}  // namespace gpucnn::conv
