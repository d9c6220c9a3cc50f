#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double windowed_percentile(const std::vector<double>& samples, double p,
                           std::size_t windows) {
  if (windows == 0 || samples.size() < windows) return percentile(samples, p);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = samples.begin() + static_cast<std::ptrdiff_t>(
                                          w * samples.size() / windows);
    const auto hi = samples.begin() + static_cast<std::ptrdiff_t>(
                                          (w + 1) * samples.size() / windows);
    per_window.push_back(percentile(std::vector<double>(lo, hi), p));
  }
  return median(std::move(per_window));
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform_open0() {
  return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double start_s, std::size_t count) {
  if (!(rate_per_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule: rate must be positive");
  }
  SplitMix rng(seed);
  std::vector<double> due;
  due.reserve(count);
  double t = start_s;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log(rng.uniform_open0()) / rate_per_s;
    due.push_back(t);
  }
  return due;
}

std::map<std::string, double> per_op(const Counts& before,
                                     const Counts& after, double ops) {
  if (!(ops > 0.0)) {
    throw std::invalid_argument("per_op: operation count must be positive");
  }
  std::map<std::string, double> out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::int64_t base = it == before.end() ? 0 : it->second;
    out[name] = static_cast<double>(value - base) / ops;
  }
  return out;
}

}  // namespace perfbench
