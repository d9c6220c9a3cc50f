// Overlap-save tiled FFT convolution: exactness against the direct
// oracle for every tiling, and the tile planner's area economics.
#include "conv/tiled_fft_conv.hpp"

#include <gtest/gtest.h>

#include "conv/direct_conv.hpp"
#include "core/rng.hpp"

namespace gpucnn::conv {
namespace {

void expect_forward_matches(const ConvConfig& cfg, std::size_t tile) {
  Rng rng(51);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor want(cfg.output_shape());
  DirectConv{}.forward(cfg, x, w, want);
  Tensor got(cfg.output_shape());
  TiledFftConv(tile).forward(cfg, x, w, got);
  EXPECT_LT(max_abs_diff(want, got),
            1e-4 * (1.0 + static_cast<double>(cfg.channels)))
      << "tile " << tile << " cfg " << cfg;
}

TEST(TiledFft, ExactForExactlyDivisibleTiles) {
  // 16x16 input, k=3 -> o=14; tile 16 -> out_tile 14: single tile.
  expect_forward_matches({.batch = 2, .input = 16, .channels = 2,
                          .filters = 3, .kernel = 3, .stride = 1},
                         16);
}

TEST(TiledFft, ExactForOverlappingTiles) {
  // tile 8, k=3 -> out_tile 6; o=14 needs 3x3 tiles with ragged edge.
  expect_forward_matches({.batch = 2, .input = 16, .channels = 2,
                          .filters = 3, .kernel = 3, .stride = 1},
                         8);
}

TEST(TiledFft, ExactWithPadding) {
  expect_forward_matches({.batch = 1, .input = 15, .channels = 3,
                          .filters = 2, .kernel = 5, .stride = 1,
                          .pad = 2},
                         16);
}

TEST(TiledFft, ExactForTinyTiles) {
  // Smallest legal tile for k=3 is 4: out_tile 2, many tiles.
  expect_forward_matches({.batch = 1, .input = 12, .channels = 1,
                          .filters = 1, .kernel = 3, .stride = 1},
                         4);
}

TEST(TiledFft, AutoTileMatchesDirectToo) {
  expect_forward_matches({.batch = 1, .input = 20, .channels = 2,
                          .filters = 2, .kernel = 3, .stride = 1, .pad = 1},
                         0);
}

TEST(TiledFft, BatchedTilesEqualPerTileUntiledCallsBitForBit) {
  // The engine runs all tiles as one batched untiled call, transforming
  // the filters once. The oracle is the per-tile form: gather each
  // padded patch, run the untiled engine on it alone, scatter its valid
  // region. Both must agree exactly (channels >= 4 reaches the vector
  // pointwise kernel).
  const ConvConfig cfg{.batch = 2, .input = 19, .channels = 5,
                       .filters = 3, .kernel = 3, .stride = 1, .pad = 1};
  const std::size_t tile = 8;
  Rng rng(53);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor got(cfg.output_shape());
  TiledFftConv(tile).forward(cfg, x, w, got);

  const std::size_t o = cfg.output();
  const std::size_t out_tile = tile - cfg.kernel + 1;
  const std::size_t tiles = (o + out_tile - 1) / out_tile;
  ConvConfig tcfg = cfg;
  tcfg.input = tile;
  tcfg.pad = 0;
  Tensor want(cfg.output_shape());
  for (std::size_t ty = 0; ty < tiles; ++ty) {
    for (std::size_t tx = 0; tx < tiles; ++tx) {
      Tensor patch(tcfg.input_shape());
      for (std::size_t n = 0; n < cfg.batch; ++n) {
        for (std::size_t c = 0; c < cfg.channels; ++c) {
          for (std::size_t y = 0; y < tile; ++y) {
            for (std::size_t xx = 0; xx < tile; ++xx) {
              const std::size_t iy = ty * out_tile + y;
              const std::size_t ix = tx * out_tile + xx;
              if (iy < cfg.pad || iy >= cfg.input + cfg.pad ||
                  ix < cfg.pad || ix >= cfg.input + cfg.pad) {
                continue;
              }
              patch(n, c, y, xx) = x(n, c, iy - cfg.pad, ix - cfg.pad);
            }
          }
        }
      }
      Tensor tile_out(tcfg.output_shape());
      FftConv{}.forward(tcfg, patch, w, tile_out);
      for (std::size_t n = 0; n < cfg.batch; ++n) {
        for (std::size_t f = 0; f < cfg.filters; ++f) {
          for (std::size_t y = 0; y < out_tile; ++y) {
            for (std::size_t xx = 0; xx < out_tile; ++xx) {
              const std::size_t oy = ty * out_tile + y;
              const std::size_t ox = tx * out_tile + xx;
              if (oy < o && ox < o) {
                want(n, f, oy, ox) = tile_out(n, f, y, xx);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(max_abs_diff(want, got), 0.0);
}

TEST(TiledFft, BackwardPassesDelegateAndAgree) {
  const ConvConfig cfg{.batch = 2, .input = 10, .channels = 2,
                       .filters = 3, .kernel = 3, .stride = 1, .pad = 1};
  Rng rng(52);
  Tensor x(cfg.input_shape());
  x.fill_uniform(rng);
  Tensor w(cfg.filter_shape());
  w.fill_uniform(rng);
  Tensor gout(cfg.output_shape());
  gout.fill_uniform(rng);

  DirectConv oracle;
  TiledFftConv engine(8);
  Tensor want(cfg.input_shape());
  Tensor got(cfg.input_shape());
  oracle.backward_data(cfg, gout, w, want);
  engine.backward_data(cfg, gout, w, got);
  EXPECT_LT(max_abs_diff(want, got), 1e-4);

  Tensor want_gw(cfg.filter_shape());
  Tensor got_gw(cfg.filter_shape());
  oracle.backward_filter(cfg, x, gout, want_gw);
  engine.backward_filter(cfg, x, gout, got_gw);
  EXPECT_LT(max_abs_diff(want_gw, got_gw), 1e-3);
}

TEST(TiledFft, PlannerPrefersSmallTilesForSmallKernels) {
  // Large input, small kernel: tiling beats one huge padded transform.
  const ConvConfig cfg{.batch = 1, .input = 200, .channels = 1,
                       .filters = 1, .kernel = 3, .stride = 1};
  const TiledFftConv engine(0);
  const std::size_t tile = engine.tile_for(cfg);
  EXPECT_LT(tile, FftConv::transform_size(cfg));
  EXPECT_GE(tile, 8U);
}

TEST(TiledFft, PlannerFallsBackForLargeKernels) {
  // k close to the input: overlap would dominate; use one transform.
  const ConvConfig cfg{.batch = 1, .input = 40, .channels = 1,
                       .filters = 1, .kernel = 31, .stride = 1};
  const TiledFftConv engine(0);
  EXPECT_EQ(engine.tile_for(cfg), FftConv::transform_size(cfg));
}

TEST(TiledFft, RejectsNonPowerOfTwoTile) {
  EXPECT_THROW(TiledFftConv(12), Error);
}

TEST(TiledFft, RejectsTileSmallerThanKernel) {
  const ConvConfig cfg{.batch = 1, .input = 16, .channels = 1,
                       .filters = 1, .kernel = 5, .stride = 1};
  const TiledFftConv engine(4);
  EXPECT_THROW((void)engine.tile_for(cfg), Error);
}

TEST(TiledFft, StrideLimitInherited) {
  const ConvConfig cfg{.batch = 1, .input = 16, .channels = 1,
                       .filters = 1, .kernel = 3, .stride = 2};
  EXPECT_FALSE(TiledFftConv(8).supports(cfg));
}

}  // namespace
}  // namespace gpucnn::conv
