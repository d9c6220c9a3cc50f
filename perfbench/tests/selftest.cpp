// Self-test of the harness helpers (stats.hpp). run.py runs it after
// every build and refuses to benchmark when it fails.
//
//   .bench_build/perfbench_selftest   -> exit 0 and "selftest: N checks ok"
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int checks = 0;
int failures = 0;

void expect(bool ok, const char* what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

void test_percentile() {
  using perfbench::percentile;
  // Nearest rank over 1..10: p50 -> rank 5, p95 -> rank 10, p10 -> rank 1.
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted on purpose
  expect(percentile(ten, 50) == 5.0, "p50 of 1..10 is 5");
  expect(percentile(ten, 95) == 10.0, "p95 of 1..10 is 10");
  expect(percentile(ten, 90) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(ten, 10) == 1.0, "p10 of 1..10 is 1");
  expect(percentile(ten, 0) == 1.0, "p0 is the minimum");
  expect(percentile(ten, 100) == 10.0, "p100 is the maximum");
  // 1..200: p95 -> rank 190, leaving ten samples beyond it.
  std::vector<double> two_hundred;
  for (int i = 1; i <= 200; ++i) two_hundred.push_back(i);
  expect(percentile(two_hundred, 95) == 190.0, "p95 of 1..200 is 190");
  expect(percentile(two_hundred, 99) == 198.0, "p99 of 1..200 is 198");
  expect(percentile({}, 50) == 0.0, "empty input gives 0");
  expect(percentile({7.5}, 99) == 7.5, "single sample is every percentile");
  expect(perfbench::median({3, 1, 2}) == 2.0, "median of 3 samples");

  // Five windows of 1..10; a stall inflates the whole third window.
  std::vector<double> series;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 10; ++i) series.push_back(w == 2 ? 100.0 * i : i);
  }
  expect(perfbench::windowed_percentile(series, 90, 5) == 9.0,
         "a stall in one window leaves the windowed p90 alone");
  expect(percentile(series, 90) == 500.0, "while the plain p90 moves");
  expect(perfbench::windowed_percentile({4, 2}, 50, 5) == 2.0,
         "fewer samples than windows falls back to the plain percentile");
}

void test_schedule() {
  using perfbench::poisson_schedule;
  const auto a = poisson_schedule(42, 400.0, 1.0, 4000);
  const auto b = poisson_schedule(42, 400.0, 1.0, 4000);
  const auto c = poisson_schedule(43, 400.0, 1.0, 4000);
  expect(a == b, "same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  bool increasing = a.front() > 1.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    increasing = increasing && a[i] > a[i - 1];
  }
  expect(increasing, "due times start after the origin and increase");
  // Mean gap of 4000 exponential draws at 400/s is 2.5 ms within ~5%.
  const double mean_gap = (a.back() - 1.0) / static_cast<double>(a.size());
  expect(std::fabs(mean_gap - 1.0 / 400.0) < 0.05 / 400.0,
         "mean gap matches the rate");
  // Pin the stream so an accidental change of generator shows.
  perfbench::SplitMix rng(1);
  expect(rng.next() == 0x910A2DEC89025CC1ULL, "splitmix64 reference value");
  bool threw = false;
  try {
    (void)poisson_schedule(1, 0.0, 0.0, 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "zero rate is rejected");
}

void test_per_op() {
  const perfbench::Counts before{{"a", 10}, {"b", 0}};
  const perfbench::Counts after{{"a", 30}, {"b", 5}, {"c", 8}};
  const auto r = perfbench::per_op(before, after, 4.0);
  expect(r.at("a") == 5.0, "delta divided by ops");
  expect(r.at("b") == 1.25, "fractional per-op value");
  expect(r.at("c") == 2.0, "a counter missing before counts from 0");
  expect(r.size() == 3, "one entry per counter after");
  bool threw = false;
  try {
    (void)perfbench::per_op(before, after, 0.0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "zero operations is rejected");
  expect(perfbench::share(1.0, 4.0) == 0.25 && perfbench::share(1.0, 0.0) == 0.0,
         "share and its zero guard");
}

}  // namespace

int main() {
  test_percentile();
  test_schedule();
  test_per_op();
  std::printf("selftest: %d checks, %d failed\n", checks, failures);
  return failures == 0 ? 0 : 1;
}
