#include "blas/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "blas/packed.hpp"

#include "core/cpu_features.hpp"
#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace.hpp"
#include "obs/metrics.hpp"

#if GPUCNN_X86_SIMD
#include <immintrin.h>
#endif

namespace gpucnn::blas {
namespace {

// Blocking parameters (GotoBLAS-style): C is updated in mr x nr micro
// tiles, A is packed in MC x KC panels, B in KC x NC panels. Values chosen
// so the packed A panel fits L2 and a B micro panel fits L1 on typical
// x86 cores; the ablation bench sweeps these. kMc/kNc are multiples of
// every micro-tile edge (8x8 portable, 6x16 AVX2) so full panels pack
// without ragged tiles.
constexpr std::size_t kMc = 120;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 2048;

// Multiply-adds (m * n * k) from which a blocked GEMM spreads over the
// pool; below it every stage runs inline on the calling thread.
constexpr double kParallelMacs = 1U << 20U;
// Macro-kernel tasks per pool worker: a few each, so dynamic claiming
// absorbs uneven tiles (ragged edges, host noise).
constexpr std::size_t kTasksPerWorker = 4;

constexpr std::size_t div_up(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// The micro-kernel contract: fn(kc, packed_a, packed_b, acc) fully
// overwrites acc (mr x nr row-major) with packed_a(kc x mr)^T *
// packed_b(kc x nr). Which kernel (and thus which tile shape) runs is
// picked per call from simd::active().
struct MicroKernel {
  std::size_t mr;
  std::size_t nr;
  // __restrict matters: the kernels are called through this pointer, so
  // without it the compiler must assume acc aliases the packed panels
  // and cannot vectorise the accumulation.
  void (*fn)(std::size_t kc, const float* __restrict packed_a,
             const float* __restrict packed_b, float* __restrict acc);
};

// Portable micro kernel (8x8). On GCC/Clang it uses generic vector
// extensions (no ISA-specific intrinsics — the compiler lowers the 4-wide
// ops to whatever the baseline target offers, SSE2 on x86-64, NEON on
// aarch64). Auto-vectorisation is not reliable here: as a standalone
// function reached through a pointer GCC picks a strided scheme ~3x
// slower than this explicit form. Two 4-row halves keep the accumulators
// within 16 vector registers.
#if defined(__GNUC__) || defined(__clang__)
void micro_kernel_8x8_portable(std::size_t kc,
                               const float* __restrict packed_a,
                               const float* __restrict packed_b,
                               float* __restrict acc) {
  constexpr std::size_t mr = 8;
  constexpr std::size_t nr = 8;
  using V4 = float __attribute__((vector_size(16)));
  for (std::size_t ih = 0; ih < mr; ih += 4) {
    V4 c0[4];
    V4 c1[4];
    for (int i = 0; i < 4; ++i) {
      c0[i] = V4{};
      c1[i] = V4{};
    }
    const float* a = packed_a + ih;
    const float* b = packed_b;
    for (std::size_t p = 0; p < kc; ++p) {
      V4 b0;
      V4 b1;
      std::memcpy(&b0, b, sizeof(V4));
      std::memcpy(&b1, b + 4, sizeof(V4));
      for (int i = 0; i < 4; ++i) {
        const V4 av = {a[i], a[i], a[i], a[i]};
        c0[i] += av * b0;
        c1[i] += av * b1;
      }
      a += mr;
      b += nr;
    }
    for (int i = 0; i < 4; ++i) {
      std::memcpy(acc + (ih + i) * nr, &c0[i], sizeof(V4));
      std::memcpy(acc + (ih + i) * nr + 4, &c1[i], sizeof(V4));
    }
  }
}
#else
void micro_kernel_8x8_portable(std::size_t kc, const float* packed_a,
                               const float* packed_b, float* acc) {
  constexpr std::size_t mr = 8;
  constexpr std::size_t nr = 8;
  std::memset(acc, 0, mr * nr * sizeof(float));
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = packed_a + p * mr;
    const float* brow = packed_b + p * nr;
    for (std::size_t i = 0; i < mr; ++i) {
      const float av = arow[i];
      float* accrow = acc + i * nr;
      for (std::size_t j = 0; j < nr; ++j) accrow[j] += av * brow[j];
    }
  }
}
#endif

#if GPUCNN_X86_SIMD
// AVX2/FMA micro kernel (6x16): 12 ymm accumulators (6 rows x 2 vectors
// of 8 floats), 2 loads + 6 broadcasts + 12 FMAs per k step — the
// classic Haswell-era register tiling, compiled for avx2+fma via the
// target attribute and selected at runtime.
__attribute__((target("avx2,fma"))) void micro_kernel_6x16_avx2(
    std::size_t kc, const float* __restrict packed_a,
    const float* __restrict packed_b, float* __restrict acc) {
  __m256 c0[6];
  __m256 c1[6];
#pragma GCC unroll 6
  for (std::size_t i = 0; i < 6; ++i) {
    c0[i] = _mm256_setzero_ps();
    c1[i] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(packed_b);
    const __m256 b1 = _mm256_loadu_ps(packed_b + 8);
    packed_b += 16;
#pragma GCC unroll 6
    for (std::size_t i = 0; i < 6; ++i) {
      const __m256 a = _mm256_broadcast_ss(packed_a + i);
      c0[i] = _mm256_fmadd_ps(a, b0, c0[i]);
      c1[i] = _mm256_fmadd_ps(a, b1, c1[i]);
    }
    packed_a += 6;
  }
#pragma GCC unroll 6
  for (std::size_t i = 0; i < 6; ++i) {
    _mm256_storeu_ps(acc + i * 16, c0[i]);
    _mm256_storeu_ps(acc + i * 16 + 8, c1[i]);
  }
}
#endif  // GPUCNN_X86_SIMD

MicroKernel select_micro_kernel() {
#if GPUCNN_X86_SIMD
  if (simd::active() == simd::Level::kAvx2) {
    return {6, 16, micro_kernel_6x16_avx2};
  }
#endif
  return {8, 8, micro_kernel_8x8_portable};
}

// Largest mr * nr any kernel uses; micro-tile accumulators live on the
// stack at this size.
constexpr std::size_t kMaxTileElems = 8 * 16;

// Packing traffic split by operand: for the conv engines A is the
// weights and B the im2col'd activations; for FcLayer the roles flip.
// The split lets dashboards separate the weight packing the prepack
// cache eliminates from the unavoidable per-call activation packing.
obs::Counter& bytes_packed_a_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.bytes_packed_a");
  return c;
}

obs::Counter& bytes_packed_b_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.bytes_packed_b");
  return c;
}

obs::Counter& prepack_hits_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.prepack_hits");
  return c;
}

obs::Counter& prepack_bytes_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.prepack_bytes");
  return c;
}

obs::Counter& epilogue_calls_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.epilogue_calls");
  return c;
}

obs::Counter& epilogue_elems_counter() {
  static obs::Counter& c =
      obs::metrics().counter("blas.sgemm.epilogue_elems");
  return c;
}

// Logical element accessor honouring the transpose flag: returns
// op(X)(row, col) for an m-by-n logical operand.
inline float element(std::span<const float> x, std::size_t ld, Trans trans,
                     std::size_t row, std::size_t col) {
  return trans == Trans::kNo ? x[row * ld + col] : x[col * ld + row];
}

// Packs a kc x nr slice of op(B) starting at (p0, j0) into `dst` in
// row-of-micro-tile order; columns beyond `jn` are zero padded. The
// no-transpose case copies contiguous rows of B.
void pack_b_panel(std::span<const float> b, std::size_t ldb, Trans trans_b,
                  std::size_t p0, std::size_t kc, std::size_t j0,
                  std::size_t jn, std::size_t nr, float* dst) {
  if (trans_b == Trans::kNo && jn == nr) {
    const float* src = b.data() + p0 * ldb + j0;
    for (std::size_t p = 0; p < kc; ++p) {
      std::memcpy(dst + p * nr, src + p * ldb, nr * sizeof(float));
    }
    return;
  }
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t j = 0; j < nr; ++j) {
      dst[p * nr + j] =
          j < jn ? element(b, ldb, trans_b, p0 + p, j0 + j) : 0.0F;
    }
  }
}

// Packs an mr x kc slice of op(A) starting at (i0, p0) into `dst`; rows
// beyond `im` are zero padded.
void pack_a_panel(std::span<const float> a, std::size_t lda, Trans trans_a,
                  std::size_t i0, std::size_t im, std::size_t p0,
                  std::size_t kc, std::size_t mr, float* dst) {
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t i = 0; i < mr; ++i) {
      dst[p * mr + i] =
          i < im ? element(a, lda, trans_a, i0 + i, p0 + p) : 0.0F;
    }
  }
}

// C-tile writeback: crow = alpha * acc + beta * crow, with beta == 0
// treated as overwrite per BLAS convention (crow may be uninitialised).
inline void write_tile(float* c, std::size_t ldc, const float* acc,
                       std::size_t nr, std::size_t im, std::size_t jn,
                       float alpha, float beta) {
  if (beta == 0.0F) {
    for (std::size_t i = 0; i < im; ++i) {
      float* crow = c + i * ldc;
      const float* accrow = acc + i * nr;
      for (std::size_t j = 0; j < jn; ++j) crow[j] = alpha * accrow[j];
    }
  } else {
    for (std::size_t i = 0; i < im; ++i) {
      float* crow = c + i * ldc;
      const float* accrow = acc + i * nr;
      for (std::size_t j = 0; j < jn; ++j) {
        crow[j] = alpha * accrow[j] + beta * crow[j];
      }
    }
  }
}

// The epilogue on rows [row0, row0 + rows) of C: bias[row] broadcast
// along the row, then the ReLU clamp. Runs after the row's final k
// update — the same scale / add-bias / clamp operation order as the
// unfused add_bias + activation passes, so results are bit-identical.
inline void apply_epilogue(float* c, std::size_t ldc, std::size_t row0,
                           std::size_t rows, std::size_t cols,
                           const Epilogue& ep) {
  for (std::size_t i = 0; i < rows; ++i) {
    float* crow = c + i * ldc;
    if (ep.bias != nullptr) {
      const float b = ep.bias[row0 + i];
      for (std::size_t j = 0; j < cols; ++j) crow[j] += b;
    }
    if (ep.relu) {
      for (std::size_t j = 0; j < cols; ++j) {
        crow[j] = crow[j] > 0.0F ? crow[j] : 0.0F;
      }
    }
  }
}

// beta-only update of an m x n block of C (k == 0 or alpha == 0 paths).
void scale_c(std::size_t m, std::size_t n, float beta, std::span<float> c,
             std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * ldc;
    if (beta == 0.0F) {
      std::memset(crow, 0, n * sizeof(float));
    } else {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// True when `p` can feed the blocked loop in place of staged packing:
// it was packed for the micro-tile shape that will run and describes
// exactly the operand of this call.
bool pack_usable(const PackedMatrix& p, PackedMatrix::Role role,
                 std::size_t rows, std::size_t cols, std::size_t tile) {
  return p.valid() && p.role() == role && p.rows() == rows &&
         p.cols() == cols && p.tile() == tile && p.kc_block() == kKc;
}

// The shared driver behind sgemm and both sgemm_prepacked overloads.
// `pa` / `pb` (either may be null) supply pre-packed panels; a non-null
// pack that fails pack_usable is demoted to staged packing over the
// same a/b spans, so every call runs exactly one code shape and the
// prepacked results are bit-identical by construction.
void sgemm_driver(Trans trans_a, Trans trans_b, std::size_t m,
                  std::size_t n, std::size_t k, float alpha,
                  std::span<const float> a, std::size_t lda,
                  std::span<const float> b, std::size_t ldb, float beta,
                  std::span<float> c, std::size_t ldc, const Epilogue& ep,
                  const PackedMatrix* pa, const PackedMatrix* pb) {
  if (m == 0 || n == 0) return;
  if (ep.active()) {
    epilogue_calls_counter().add(1);
    epilogue_elems_counter().add(static_cast<std::int64_t>(m * n));
  }
  if (k == 0 || alpha == 0.0F) {
    scale_c(m, n, beta, c, ldc);
    if (ep.active()) apply_epilogue(c.data(), ldc, 0, m, n, ep);
    return;
  }

  // Small problems: dispatch overhead and packing dominate; fall back.
  if (static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) < 64.0 * 64.0 * 64.0) {
    sgemm_naive(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
                ldc);
    if (ep.active()) apply_epilogue(c.data(), ldc, 0, m, n, ep);
    return;
  }

  const MicroKernel uk = select_micro_kernel();
  const std::size_t mr = uk.mr;
  const std::size_t nr = uk.nr;

  if (pa != nullptr && !pack_usable(*pa, PackedMatrix::Role::kA, m, k, mr)) {
    pa = nullptr;
  }
  if (pb != nullptr && !pack_usable(*pb, PackedMatrix::Role::kB, k, n, nr)) {
    pb = nullptr;
  }
  if (pa != nullptr || pb != nullptr) prepack_hits_counter().add(1);
  // Global tile counts the pack layouts are blocked by (kNc is a
  // multiple of nr and kMc of mr, so staged windows land on whole
  // global tiles and a window's panels are a contiguous pack slice).
  const std::size_t a_tiles_total = (m + mr - 1) / mr;
  const std::size_t b_tiles_total = (n + nr - 1) / nr;
  const std::size_t m_blocks = div_up(m, kMc);
  const std::size_t tiles_per_block = kMc / mr;
  // Small problems run every stage on the calling thread: a pool
  // dispatch would cost more than the work it splits.
  const bool parallel = static_cast<double>(m) * static_cast<double>(n) *
                            static_cast<double>(k) >=
                        kParallelMacs;
  const std::size_t serial_threshold =
      parallel ? 2 : std::numeric_limits<std::size_t>::max();

  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t n_tiles = div_up(nc, nr);
    // The macro-kernel splits into (row block x column-tile range)
    // tasks, enough for every worker to claim several: a thin M (one
    // row block, as in batch-1 conv forwards) still spreads over the
    // whole pool through its column ranges.
    const std::size_t wanted_ranges =
        parallel ? div_up(kTasksPerWorker * global_pool().size(), m_blocks)
                 : 1;
    const std::size_t range_len =
        div_up(n_tiles, std::min(wanted_ranges, n_tiles));
    const std::size_t ranges = div_up(n_tiles, range_len);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const float beta_block = pc == 0 ? beta : 1.0F;
      // The epilogue fires only on the write-back that completes a C
      // tile's reduction over k — the tile is hot, bias and ReLU are
      // free bandwidth-wise.
      const bool last_k_block = pc + kc == k;
      const std::size_t block = pc / kKc;  // pc-block index into packs

      // One parallel pre-pass packs this k-block's B panel and every A
      // row block (tiles of both operands are independent jobs) — or
      // the k-block's slices of the prepacked panels stand in for them.
      const std::size_t b_jobs = pb == nullptr ? n_tiles : 0;
      const std::size_t a_jobs = pa == nullptr ? a_tiles_total : 0;
      ws::Scratch<float> packed_b(b_jobs * kc * nr);
      ws::Scratch<float> packed_a(a_jobs * kc * mr);
      float* b_dst = packed_b.data();
      float* a_dst = packed_a.data();
      parallel_for(
          0, b_jobs + a_jobs,
          [&](std::size_t t) {
            if (t < b_jobs) {
              const std::size_t j0 = jc + t * nr;
              pack_b_panel(b, ldb, trans_b, pc, kc, j0,
                           std::min(nr, n - j0), nr, b_dst + t * kc * nr);
            } else {
              const std::size_t i0 = (t - b_jobs) * mr;
              pack_a_panel(a, lda, trans_a, i0, std::min(mr, m - i0), pc,
                           kc, mr, a_dst + (t - b_jobs) * kc * mr);
            }
          },
          serial_threshold);
      bytes_packed_b_counter().add(
          static_cast<std::int64_t>(b_jobs * kc * nr * sizeof(float)));
      bytes_packed_a_counter().add(
          static_cast<std::int64_t>(a_jobs * kc * mr * sizeof(float)));
      const float* pb_panel =
          pb == nullptr ? b_dst
                        : pb->data() + block * b_tiles_total * kKc * nr +
                              (jc / nr) * kc * nr;
      const float* pa_panel =
          pa == nullptr ? a_dst
                        : pa->data() + block * a_tiles_total * kKc * mr;

      // Every C tile gets exactly one micro-kernel call per k-block,
      // in k order (this loop nest), whichever task runs it — so the
      // result is independent of the partition and the thread count.
      parallel_for(
          0, m_blocks * ranges,
          [&](std::size_t task) {
            const std::size_t ti_lo = (task / ranges) * tiles_per_block;
            const std::size_t ti_hi =
                std::min(ti_lo + tiles_per_block, a_tiles_total);
            const std::size_t tj_lo = (task % ranges) * range_len;
            const std::size_t tj_hi = std::min(tj_lo + range_len, n_tiles);
            alignas(64) float acc[kMaxTileElems];
            // jr outer, ir inner: a B micro-panel stays in L1 while the
            // row block's A panels stream from L2.
            for (std::size_t tj = tj_lo; tj < tj_hi; ++tj) {
              const std::size_t j0 = jc + tj * nr;
              const std::size_t jn = std::min(nr, n - j0);
              for (std::size_t ti = ti_lo; ti < ti_hi; ++ti) {
                const std::size_t i0 = ti * mr;
                const std::size_t im = std::min(mr, m - i0);
                uk.fn(kc, pa_panel + ti * kc * mr, pb_panel + tj * kc * nr,
                      acc);
                write_tile(c.data() + i0 * ldc + j0, ldc, acc, nr, im, jn,
                           alpha, beta_block);
                if (last_k_block && ep.active()) {
                  apply_epilogue(c.data() + i0 * ldc + j0, ldc, i0, im, jn,
                                 ep);
                }
              }
            }
          },
          serial_threshold);
    }
  }
}

}  // namespace

void sgemm_naive(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, std::span<const float> a,
                 std::size_t lda, std::span<const float> b, std::size_t ldb,
                 float beta, std::span<float> c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(element(a, lda, trans_a, i, p)) *
               element(b, ldb, trans_b, p, j);
      }
      float& out = c[i * ldc + j];
      // beta == 0 overwrites: `out` may hold garbage or NaN.
      out = beta == 0.0F ? alpha * static_cast<float>(acc)
                         : alpha * static_cast<float>(acc) + beta * out;
    }
  }
}

void sgemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, std::span<const float> a,
           std::size_t lda, std::span<const float> b, std::size_t ldb,
           float beta, std::span<float> c, std::size_t ldc) {
  sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
        Epilogue{});
}

void sgemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, std::span<const float> a,
           std::size_t lda, std::span<const float> b, std::size_t ldb,
           float beta, std::span<float> c, std::size_t ldc,
           const Epilogue& ep) {
  sgemm_driver(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c,
               ldc, ep, nullptr, nullptr);
}

void sgemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, std::span<const float> a,
           std::span<const float> b, float beta, std::span<float> c) {
  const std::size_t lda = trans_a == Trans::kNo ? k : m;
  const std::size_t ldb = trans_b == Trans::kNo ? n : k;
  sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, n);
}

PackedMatrix pack_a(Trans trans_a, std::size_t m, std::size_t k,
                    std::span<const float> a, std::size_t lda) {
  PackedMatrix p;
  p.role_ = PackedMatrix::Role::kA;
  p.trans_ = trans_a;
  p.rows_ = m;
  p.cols_ = k;
  p.origin_ = a;
  p.origin_ld_ = lda;
  if (m == 0 || k == 0) return p;
  const MicroKernel uk = select_micro_kernel();
  const std::size_t mr = uk.mr;
  p.level_ = simd::active();
  p.tile_ = mr;
  p.kc_block_ = kKc;
  const std::size_t tiles = (m + mr - 1) / mr;
  p.data_.resize(tiles * mr * k);  // sum over k blocks of tiles*kc*mr
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    float* block = p.data_.data() + (pc / kKc) * tiles * kKc * mr;
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t i0 = t * mr;
      pack_a_panel(a, lda, trans_a, i0, std::min(mr, m - i0), pc, kc, mr,
                   block + t * kc * mr);
    }
  }
  prepack_bytes_counter().add(static_cast<std::int64_t>(p.bytes()));
  return p;
}

PackedMatrix pack_b(Trans trans_b, std::size_t k, std::size_t n,
                    std::span<const float> b, std::size_t ldb) {
  PackedMatrix p;
  p.role_ = PackedMatrix::Role::kB;
  p.trans_ = trans_b;
  p.rows_ = k;
  p.cols_ = n;
  p.origin_ = b;
  p.origin_ld_ = ldb;
  if (k == 0 || n == 0) return p;
  const MicroKernel uk = select_micro_kernel();
  const std::size_t nr = uk.nr;
  p.level_ = simd::active();
  p.tile_ = nr;
  p.kc_block_ = kKc;
  const std::size_t tiles = (n + nr - 1) / nr;
  p.data_.resize(tiles * nr * k);
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    float* block = p.data_.data() + (pc / kKc) * tiles * kKc * nr;
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t j0 = t * nr;
      pack_b_panel(b, ldb, trans_b, pc, kc, j0, std::min(nr, n - j0), nr,
                   block + t * kc * nr);
    }
  }
  prepack_bytes_counter().add(static_cast<std::int64_t>(p.bytes()));
  return p;
}

void sgemm_prepacked(std::size_t m, std::size_t n, std::size_t k,
                     float alpha, const PackedMatrix& a, Trans trans_b,
                     std::span<const float> b, std::size_t ldb, float beta,
                     std::span<float> c, std::size_t ldc,
                     const Epilogue& ep) {
  sgemm_driver(a.trans(), trans_b, m, n, k, alpha, a.origin(),
               a.origin_ld(), b, ldb, beta, c, ldc, ep, &a, nullptr);
}

void sgemm_prepacked(Trans trans_a, std::size_t m, std::size_t n,
                     std::size_t k, float alpha, std::span<const float> a,
                     std::size_t lda, const PackedMatrix& b, float beta,
                     std::span<float> c, std::size_t ldc,
                     const Epilogue& ep) {
  sgemm_driver(trans_a, b.trans(), m, n, k, alpha, a, lda, b.origin(),
               b.origin_ld(), beta, c, ldc, ep, nullptr, &b);
}

}  // namespace gpucnn::blas
