// Pure helpers of the benchmark harness, kept free of the library so
// the self-test covers them without a model: nearest-rank percentiles,
// the seeded open-loop arrival schedule, and per-operation counter
// normalisation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the samples at or below it (p in [0, 100]). p = 0 gives the
/// minimum; an empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Median (the nearest-rank 50th percentile).
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Median over `windows` contiguous, near-equal slices of `samples` of
/// each slice's nearest-rank p-th percentile: a percentile that a host
/// stall confined to a minority of the slices does not move. Fewer
/// samples than windows gives the plain percentile.
[[nodiscard]] double windowed_percentile(const std::vector<double>& samples,
                                         double p, std::size_t windows);

/// Deterministic generator (splitmix64): the same seed gives the same
/// stream on every platform.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in (0, 1]: never 0, so -log(u) is finite.
  double uniform_open0();

 private:
  std::uint64_t state_;
};

/// Absolute due times, in seconds from `start_s`, of `count` Poisson
/// arrivals at `rate_per_s`: exponential gaps drawn from `seed`. The
/// schedule depends only on its arguments, never on how fast requests
/// are served.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   double start_s,
                                                   std::size_t count);

/// Named counter values at one instant.
using Counts = std::map<std::string, std::int64_t>;

/// (after - before) / ops for every name in `after`; a name missing from
/// `before` counts from 0. Throws std::invalid_argument when ops <= 0.
[[nodiscard]] std::map<std::string, double> per_op(const Counts& before,
                                                   const Counts& after,
                                                   double ops);

/// Share of `part` in `whole`, 0 when whole is 0.
[[nodiscard]] inline double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace perfbench
