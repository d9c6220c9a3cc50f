// Start-of-run machine calibration (core.calib.*): the same host can
// run the same GEMM at very different speeds from one run to the next,
// so every result carries this run's single-thread and all-thread GEMM
// throughput and memory bandwidth beside it.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "blas/gemm.hpp"
#include "common.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"

namespace perfbench {

using namespace gpucnn;

namespace {

constexpr std::size_t kGemmSize = 512;  // one fixed square sgemm shape
constexpr int kGemmReps = 7;

/// Median GFLOP/s of kGemmReps square sgemms; `one_thread` runs each
/// call inside a single pool task, where the library runs nested
/// parallel loops inline.
double sgemm_gflops(bool one_thread) {
  const std::size_t n = kGemmSize;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  std::vector<float> c(n * n);
  Rng rng(3);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  auto gemm = [&] {
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, n, n, n, 1.0F, a, b,
                0.0F, c);
  };
  std::vector<double> rates;
  for (int rep = 0; rep <= kGemmReps; ++rep) {
    const double t0 = now_s();
    if (one_thread) {
      global_pool().parallel_for_chunks(
          0, 1, [&](std::size_t, std::size_t) { gemm(); });
    } else {
      gemm();
    }
    const double s = now_s() - t0;
    if (rep > 0) rates.push_back(blas::gemm_flops(n, n, n) / s / 1e9);
  }
  return median(rates);
}

}  // namespace

void calibrate(Result& r) {
  const double one = sgemm_gflops(true);
  const double all = sgemm_gflops(false);
  r.add("core.calib.sgemm_1t_gflops", one, "GFLOP/s");
  r.add("core.calib.sgemm_nt_gflops", all, "GFLOP/s");
  r.add("core.calib.parallel_speedup", share(all, one), "x");

  // Triad a = b + s*c over three arrays whose combined size is at least
  // four times the last-level cache, so the stream comes from DRAM.
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const double llc_bytes = llc > 0 ? static_cast<double>(llc) : 32.0 * 1048576;
  const auto n = static_cast<std::size_t>(4.0 * llc_bytes / 3.0 / 8.0) + 1;
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
    std::fill(a.get() + lo, a.get() + hi, 0.0);
    std::fill(b.get() + lo, b.get() + hi, 1.0);
    std::fill(c.get() + lo, c.get() + hi, 2.0);
  });
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    rates.push_back(3.0 * 8.0 * static_cast<double>(n) / (now_s() - t0) / 1e9);
  }
  r.add("core.calib.triad_gbps", median(rates), "GB/s");
  r.notes["calib.llc_mb"] = format_g(llc_bytes / 1048576.0);
  r.notes["calib.triad_arrays_mb"] =
      format_g(3.0 * 8.0 * static_cast<double>(n) / 1048576.0);
  r.notes["calib.sgemm_shape"] = std::to_string(kGemmSize) + "^3";
  if (a[n / 2] != 7.0) r.fail("calibration triad produced a wrong value");
}

}  // namespace perfbench
