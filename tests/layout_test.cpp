// Tiled memory layout (§3.2, Fig. 3): index round trips, strip placement,
// tile membership — parameterized over domain shapes and tile sizes
// including non-dividing (ragged) tiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "simcov_gpu/layout.hpp"

namespace simcov::gpu {
namespace {

using Param = std::tuple<int, int, int>;  // w, h, tile

class TiledLayoutP : public ::testing::TestWithParam<Param> {};

TEST_P(TiledLayoutP, InteriorIndicesAreUniqueAndInBounds) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  std::set<std::uint32_t> seen;
  for (std::int32_t y = 0; y < h; ++y) {
    for (std::int32_t x = 0; x < w; ++x) {
      const std::uint32_t s = lay.index(x, y);
      ASSERT_LT(s, lay.interior_slots());
      ASSERT_TRUE(seen.insert(s).second) << "collision at " << x << "," << y;
    }
  }
}

TEST_P(TiledLayoutP, SlotToXyInvertsIndex) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  for (std::int32_t y = 0; y < h; ++y) {
    for (std::int32_t x = 0; x < w; ++x) {
      std::int32_t rx, ry;
      lay.slot_to_xy(lay.index(x, y), rx, ry);
      ASSERT_EQ(rx, x);
      ASSERT_EQ(ry, y);
    }
  }
}

TEST_P(TiledLayoutP, GhostStripsAreDisjointFromInteriorAndEachOther) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  std::set<std::uint32_t> seen;
  for (std::int32_t y = 0; y < h; ++y) {
    seen.insert(lay.index(-1, y));
    seen.insert(lay.index(w, y));
  }
  for (std::int32_t x = 0; x < w; ++x) {
    seen.insert(lay.index(x, -1));
    seen.insert(lay.index(x, h));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(2 * w + 2 * h));
  for (std::uint32_t s : seen) {
    ASSERT_GE(s, lay.interior_slots());
    ASSERT_LT(s, lay.size());
  }
}

TEST_P(TiledLayoutP, TileMembershipConsistent) {
  const auto [w, h, tile] = GetParam();
  const TiledLayout lay(w, h, tile);
  for (std::int32_t y = 0; y < h; ++y) {
    for (std::int32_t x = 0; x < w; ++x) {
      const std::int32_t t = lay.tile_of(x, y);
      ASSERT_GE(t, 0);
      ASSERT_LT(t, lay.num_tiles());
      // The slot must live inside the tile's contiguous (stride-padded)
      // block, below the padding sentinel region.
      const std::uint32_t s = lay.index(x, y);
      const std::uint32_t ts = lay.tile_stride();
      ASSERT_EQ(static_cast<std::int32_t>(s / ts), t);
      ASSERT_LT(s % ts, static_cast<std::uint32_t>(lay.slots_per_tile()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledLayoutP,
    ::testing::Values(Param{16, 16, 4}, Param{16, 16, 8}, Param{32, 16, 8},
                      Param{17, 13, 4},   // ragged edge tiles
                      Param{9, 9, 8},     // mostly padding
                      Param{8, 8, 8},     // single tile
                      Param{5, 3, 1},     // 1x1 tiles
                      Param{64, 48, 16}));

TEST(TiledLayout, VoxelsWithinATileAreContiguous) {
  const TiledLayout lay(16, 16, 4);
  // Fig. 3B: the tile's voxels occupy one contiguous block, row-major
  // within the tile (the zig-zag path).
  const std::uint32_t base = lay.index(4, 4);  // origin of tile (1,1)
  EXPECT_EQ(lay.index(5, 4), base + 1);
  EXPECT_EQ(lay.index(4, 5), base + 4);
  EXPECT_EQ(lay.index(7, 7), base + 15);
}

TEST(TiledLayout, BorderTiles) {
  const TiledLayout lay(32, 32, 8);  // 4x4 tiles
  int border = 0;
  for (std::int32_t t = 0; t < lay.num_tiles(); ++t) {
    border += lay.is_border_tile(t);
  }
  EXPECT_EQ(border, 12);  // all but the inner 2x2
  EXPECT_TRUE(lay.is_border_tile(0));
  EXPECT_FALSE(lay.is_border_tile(5));  // tile (1,1)
}

TEST(TiledLayout, SizeAccounting) {
  const TiledLayout lay(17, 13, 4);  // 5x4 tiles of 16 slots + ghosts
  EXPECT_EQ(lay.tiles_x(), 5);
  EXPECT_EQ(lay.tiles_y(), 4);
  // pad_stride(4*4) == 16: a 4-tile's stride needs no padding.
  EXPECT_EQ(lay.tile_stride(), 16u);
  EXPECT_EQ(lay.interior_slots(), 5u * 4u * 16u);
  EXPECT_EQ(lay.size(), lay.interior_slots() + 2u * 13u + 2u * 17u);
}

TEST(TiledLayout, TileStridePadsToCacheLine) {
  // Tile sides whose slot count is not a multiple of the 16-float cache
  // line pad up to the next multiple (util::pad_stride).
  EXPECT_EQ(TiledLayout(20, 20, 5).tile_stride(), 32u);  // 25 -> 32
  EXPECT_EQ(TiledLayout(21, 21, 7).tile_stride(), 64u);  // 49 -> 64
  EXPECT_EQ(TiledLayout(5, 3, 1).tile_stride(), 16u);    // 1 -> 16
  EXPECT_EQ(TiledLayout(16, 16, 8).tile_stride(), 64u);  // 64 -> 64 (exact)
}

TEST(TiledLayout, PaddingSlotsMapToSentinel) {
  // Stride-padding slots are storage, not voxels: slot_to_xy must report
  // the out-of-range sentinel (w, h) so sweeps skip them.
  const TiledLayout lay(20, 20, 5);  // slots_per_tile 25, stride 32
  for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(lay.num_tiles());
       ++t) {
    for (std::uint32_t in = 25; in < 32; ++in) {
      std::int32_t x, y;
      lay.slot_to_xy(t * lay.tile_stride() + in, x, y);
      EXPECT_EQ(x, 20);
      EXPECT_EQ(y, 20);
    }
  }
}

// ---- division-free addressing vs. the division formulas ----------------
// index(), tile_offset_to_xy() and tile_row() replace run-time divisions
// with DivU32 reciprocals and an in-tile lookup table.  The reference
// functions below are the plain division formulas; every address of every
// tile side 1..32 must agree, over ragged shapes including a single tile
// column (slot_to_xy() and tile_of() are checked against them too).

struct RefLayout {
  std::int32_t w, h, tile, tiles_x;
  std::uint32_t stride;

  std::uint32_t interior_slots() const {
    const std::int32_t tiles_y = (h + tile - 1) / tile;
    return static_cast<std::uint32_t>(tiles_x * tiles_y) * stride;
  }
  std::uint32_t index(std::int32_t x, std::int32_t y) const {
    if (x >= 0 && x < w && y >= 0 && y < h) {
      const std::int32_t tx = x / tile, ty = y / tile;
      const std::int32_t ix = x % tile, iy = y % tile;
      return static_cast<std::uint32_t>(ty * tiles_x + tx) * stride +
             static_cast<std::uint32_t>(iy * tile + ix);
    }
    const std::uint32_t base = interior_slots();
    const auto uh = static_cast<std::uint32_t>(h);
    const auto uw = static_cast<std::uint32_t>(w);
    if (x == -1) return base + static_cast<std::uint32_t>(y);
    if (x == w) return base + uh + static_cast<std::uint32_t>(y);
    if (y == -1) return base + 2 * uh + static_cast<std::uint32_t>(x);
    return base + 2 * uh + uw + static_cast<std::uint32_t>(x);
  }
  void slot_to_xy(std::uint32_t slot, std::int32_t& x, std::int32_t& y) const {
    const auto t = static_cast<std::int32_t>(slot / stride);
    const auto in = static_cast<std::int32_t>(slot % stride);
    if (in >= tile * tile) {
      x = w;
      y = h;
      return;
    }
    x = (t % tiles_x) * tile + in % tile;
    y = (t / tiles_x) * tile + in / tile;
  }
};

std::vector<std::pair<std::int32_t, std::int32_t>> shapes_for(
    std::int32_t tile) {
  return {{1, 1},                      // one voxel, one tile
          {tile, tile},                // exactly one tile
          {tile, 3 * tile + 1},        // tiles_x == 1, ragged in y
          {2 * tile + 1, tile + 2},    // ragged in both
          {3 * tile - 1, 2 * tile},    // ragged in x only
          {4 * tile, std::max(1, tile - 1)}};  // one short tile row
}

TEST(TiledLayout, DivisionFreeAddressingMatchesDivisionFormulas) {
  for (std::int32_t tile = 1; tile <= TiledLayout::kMaxTileSide; ++tile) {
    for (const auto& [w, h] : shapes_for(tile)) {
      SCOPED_TRACE(::testing::Message() << "tile " << tile << ", " << w << "x"
                                        << h);
      const TiledLayout lay(w, h, tile);
      const RefLayout ref{w, h, tile, (w + tile - 1) / tile,
                          lay.tile_stride()};
      ASSERT_EQ(lay.interior_slots(), ref.interior_slots());
      // Every interior and padding slot.
      for (std::uint32_t slot = 0; slot < lay.interior_slots(); ++slot) {
        std::int32_t x, y, rx, ry;
        lay.slot_to_xy(slot, x, y);
        ref.slot_to_xy(slot, rx, ry);
        ASSERT_EQ(x, rx) << "slot " << slot;
        ASSERT_EQ(y, ry) << "slot " << slot;
      }
      // Every (tile, in-tile offset) pair, and every tile row.
      const auto spt = static_cast<std::uint32_t>(lay.slots_per_tile());
      for (std::uint32_t t = 0; t < static_cast<std::uint32_t>(lay.num_tiles());
           ++t) {
        for (std::uint32_t in = 0; in < spt; ++in) {
          std::int32_t x, y, rx, ry;
          lay.tile_offset_to_xy(t, in, x, y);
          ref.slot_to_xy(t * lay.tile_stride() + in, rx, ry);
          ASSERT_EQ(x, rx) << "tile " << t << " offset " << in;
          ASSERT_EQ(y, ry) << "tile " << t << " offset " << in;
        }
        for (std::uint32_t iy = 0; iy < static_cast<std::uint32_t>(tile);
             ++iy) {
          const std::uint32_t base = t * lay.tile_stride() +
                                     iy * static_cast<std::uint32_t>(tile);
          std::int32_t x0, y;
          ref.slot_to_xy(base, x0, y);
          const TiledLayout::TileRow row = lay.tile_row(t, iy);
          const TiledLayout::TileRow by_number =
              lay.row(t * static_cast<std::uint32_t>(tile) + iy);
          ASSERT_EQ(row.base, base);
          ASSERT_EQ(row.x0, x0);
          ASSERT_EQ(row.y, y);
          ASSERT_EQ(row.n, y < h ? std::min(tile, w - x0) : 0);
          ASSERT_EQ(by_number.base, row.base);
          ASSERT_EQ(by_number.n, row.n);
        }
      }
      // Every interior voxel and every ghost-ring voxel.
      for (std::int32_t y = -1; y <= h; ++y) {
        for (std::int32_t x = -1; x <= w; ++x) {
          const bool corner = (x == -1 || x == w) && (y == -1 || y == h);
          if (corner) continue;
          ASSERT_EQ(lay.index(x, y), ref.index(x, y)) << x << "," << y;
          if (x >= 0 && x < w && y >= 0 && y < h) {
            ASSERT_EQ(lay.tile_of(x, y),
                      (y / tile) * ref.tiles_x + x / tile);
          }
        }
      }
    }
  }
}

TEST(TiledLayout, InvalidConfigsThrow) {
  EXPECT_THROW(TiledLayout(0, 4, 2), Error);
  EXPECT_THROW(TiledLayout(4, 4, 0), Error);
  EXPECT_THROW(TiledLayout(64, 64, 33), Error);  // block-per-tile limit
}

}  // namespace
}  // namespace simcov::gpu
