#pragma once
// Tiled memory layout for a GPU rank's sub-domain (paper §3.2, Fig. 3).
//
// A rank's W x H interior is covered by square tiles of side `tile`; each
// tile's voxels are stored contiguously (the zig-zag traversal of Fig. 3B),
// giving the data locality the paper exploits, and making a tile the unit
// of activity tracking.  Edge tiles are padded to tile*tile slots so tile
// offsets stay closed-form; padding slots are skipped by every kernel via
// the (x, y) bounds guard.  The one-voxel ghost halo is stored as four
// strips after the interior (von Neumann interactions never need corner
// ghosts).
//
// Tile storage is padded to a cache-line-aligned stride (util::pad_stride):
// slots_per_tile() voxels live at the start of each tile_stride()-slot
// block, and the trailing pad slots are never addressed by index() nor
// mapped to valid coordinates by slot_to_xy() (they return the (w, h)
// sentinel, which every kernel's bounds guard already skips).  Combined
// with DeviceBuffer's aligned storage this makes each tile row's address
// alignment uniform across tiles, which is what lets the vectorized
// stencil sweep (core/stencil.hpp) run whole rows with aligned accesses.
//
// The kernels' addressing is division-free.  index() divides by the tile
// side through a precomputed reciprocal (util::DivU32).  A kernel thread
// gets its (x, y) either from an active-tile list entry plus its in-tile offset
// (tile_offset_to_xy: tiles per row through a reciprocal, the in-tile
// offset -> (ix, iy) split through a lookup table) or from a tile row
// (tile_row / row).  The table has a fixed size held inline (tile side
// <= 32, so at most 1024 two-byte entries; inline rather than on the heap,
// because every rank owns a layout and a per-rank heap table shows up in
// the process footprint).  slot_to_xy() and tile_of() are off the hot
// paths and keep the plain division formulas.
//
// This is a plain value type with no heap storage; kernels call index() and
// the coordinate helpers on their rank's layout.

#include <algorithm>
#include <array>
#include <cstdint>

#include "util/align.hpp"
#include "util/div_u32.hpp"
#include "util/error.hpp"

namespace simcov::gpu {

class TiledLayout {
 public:
  /// Largest supported tile side: one CUDA block (<= 1024 threads) per tile.
  static constexpr std::int32_t kMaxTileSide = 32;

  TiledLayout(std::int32_t w, std::int32_t h, std::int32_t tile)
      : w_(w), h_(h), tile_(tile),
        tiles_x_(checked_tiles_x(w, h, tile)),
        tiles_y_((h + tile - 1) / tile),
        stride_(util::pad_stride_u32(static_cast<std::uint32_t>(tile * tile))),
        div_tile_(static_cast<std::uint32_t>(tile)),
        div_tiles_x_(static_cast<std::uint32_t>(tiles_x_)) {
    const auto side = static_cast<std::size_t>(tile);
    for (std::size_t in = 0; in < std::min(side * side, in_tile_.size());
         ++in) {
      in_tile_[in] = {static_cast<std::uint8_t>(in % side),
                      static_cast<std::uint8_t>(in / side)};
    }
  }

  std::int32_t width() const { return w_; }
  std::int32_t height() const { return h_; }
  std::int32_t tile_side() const { return tile_; }
  std::int32_t tiles_x() const { return tiles_x_; }
  std::int32_t tiles_y() const { return tiles_y_; }
  std::int32_t num_tiles() const { return tiles_x_ * tiles_y_; }
  std::int32_t slots_per_tile() const { return tile_ * tile_; }

  /// Storage stride between consecutive tiles: slots_per_tile() rounded up
  /// to a cache-line-aligned multiple (util::pad_stride).  The pad slots at
  /// the end of each tile block are dead storage — index() never returns
  /// them and slot_to_xy() maps them to the out-of-range sentinel.
  std::uint32_t tile_stride() const { return stride_; }

  /// Interior storage including tile padding (edge-tile padding to a full
  /// tile, plus per-tile stride padding to an aligned tile_stride()).
  std::uint32_t interior_slots() const {
    return static_cast<std::uint32_t>(num_tiles()) * tile_stride();
  }

  /// Total storage: interior + the four ghost strips (2h + 2w).
  std::uint32_t size() const {
    return interior_slots() + 2u * static_cast<std::uint32_t>(h_) +
           2u * static_cast<std::uint32_t>(w_);
  }

  /// Memory slot of local coordinate (x, y); accepts the ghost ring
  /// (x == -1, x == w, y == -1 or y == h) but never ghost corners.
  std::uint32_t index(std::int32_t x, std::int32_t y) const {
    if (x >= 0 && x < w_ && y >= 0 && y < h_) {
      const auto ux = static_cast<std::uint32_t>(x);
      const auto uy = static_cast<std::uint32_t>(y);
      const auto tile = static_cast<std::uint32_t>(tile_);
      const std::uint32_t tx = div_tile_.div(ux), ty = div_tile_.div(uy);
      const std::uint32_t ix = ux - tx * tile, iy = uy - ty * tile;
      return (ty * static_cast<std::uint32_t>(tiles_x_) + tx) * stride_ +
             iy * tile + ix;
    }
    const std::uint32_t base = interior_slots();
    const auto uh = static_cast<std::uint32_t>(h_);
    const auto uw = static_cast<std::uint32_t>(w_);
    if (x == -1) {
      SIMCOV_ASSERT(y >= 0 && y < h_, "ghost corner access");
      return base + static_cast<std::uint32_t>(y);
    }
    if (x == w_) {
      SIMCOV_ASSERT(y >= 0 && y < h_, "ghost corner access");
      return base + uh + static_cast<std::uint32_t>(y);
    }
    if (y == -1) {
      SIMCOV_ASSERT(x >= 0 && x < w_, "ghost corner access");
      return base + 2 * uh + static_cast<std::uint32_t>(x);
    }
    SIMCOV_ASSERT(y == h_ && x >= 0 && x < w_, "index outside padded domain");
    return base + 2 * uh + uw + static_cast<std::uint32_t>(x);
  }

  /// Inverse of index() for interior+padding slots: slot -> (x, y).  For
  /// padding slots — an edge tile's out-of-domain voxels, or the stride
  /// padding after slots_per_tile() — the returned coordinates fall outside
  /// [0,w)x[0,h) (stride padding returns the (w, h) sentinel); the caller's
  /// bounds guard skips them.
  void slot_to_xy(std::uint32_t slot, std::int32_t& x, std::int32_t& y) const {
    SIMCOV_ASSERT(slot < interior_slots(), "slot is not interior");
    const std::int32_t t = static_cast<std::int32_t>(slot / stride_);
    const std::int32_t in = static_cast<std::int32_t>(slot % stride_);
    if (in >= slots_per_tile()) {  // stride padding: no voxel lives here
      x = w_;
      y = h_;
      return;
    }
    x = (t % tiles_x_) * tile_ + in % tile_;
    y = (t / tiles_x_) * tile_ + in / tile_;
  }

  /// (x, y) of in-tile offset `in` (< slots_per_tile()) of tile `tile_id`:
  /// the division-free counterpart of slot_to_xy for callers that already
  /// know the tile, e.g. a thread indexing an active-tile list.  An edge tile's padding offsets
  /// map outside [0,w)x[0,h), exactly as in slot_to_xy.
  void tile_offset_to_xy(std::uint32_t tile_id, std::uint32_t in,
                         std::int32_t& x, std::int32_t& y) const {
    SIMCOV_ASSERT(in < static_cast<std::uint32_t>(slots_per_tile()),
                  "in-tile offset out of range");
    const std::uint32_t ty = div_tiles_x_.div(tile_id);
    const std::uint32_t tx = tile_id - ty * static_cast<std::uint32_t>(tiles_x_);
    const InTile off = in_tile_[in];
    x = static_cast<std::int32_t>(tx) * tile_ + off.ix;
    y = static_cast<std::int32_t>(ty) * tile_ + off.iy;
  }

  /// One tile row clipped to the domain: `n` voxels starting at interior
  /// coordinate (x0, y), stored contiguously from slot `base`.  n == 0 for
  /// an edge tile's padding rows (y >= height()).
  struct TileRow {
    std::uint32_t base;
    std::int32_t x0, y, n;
  };

  /// Row `iy` (< tile_side()) of tile `tile_id`: the row-walk path of the
  /// vectorized sweeps, which read a row with one block access instead of
  /// mapping every slot back to (x, y).
  TileRow tile_row(std::uint32_t tile_id, std::uint32_t iy) const {
    SIMCOV_ASSERT(iy < static_cast<std::uint32_t>(tile_), "tile row out of range");
    const std::uint32_t ty = div_tiles_x_.div(tile_id);
    const std::uint32_t tx = tile_id - ty * static_cast<std::uint32_t>(tiles_x_);
    const std::int32_t x0 = static_cast<std::int32_t>(tx) * tile_;
    const std::int32_t y = static_cast<std::int32_t>(ty) * tile_ +
                           static_cast<std::int32_t>(iy);
    const std::int32_t n = y < h_ ? std::min(tile_, w_ - x0) : 0;
    return {tile_id * stride_ + iy * static_cast<std::uint32_t>(tile_), x0, y,
            n};
  }

  /// Row `r` of the tile-major row numbering r = tile_id * tile_side() + iy
  /// (num_tiles() * tile_side() rows, padding rows included).
  TileRow row(std::uint32_t r) const {
    const std::uint32_t t = div_tile_.div(r);
    return tile_row(t, r - t * static_cast<std::uint32_t>(tile_));
  }

  /// Tile id containing interior coordinate (x, y).
  std::int32_t tile_of(std::int32_t x, std::int32_t y) const {
    SIMCOV_ASSERT(x >= 0 && x < w_ && y >= 0 && y < h_, "tile_of out of range");
    return (y / tile_) * tiles_x_ + x / tile_;
  }

  /// True when the tile touches the sub-domain border (such tiles contain
  /// the voxels adjacent to the ghost halo and stay active always, §3.2).
  bool is_border_tile(std::int32_t tile_id) const {
    const std::int32_t tx = tile_id % tiles_x_, ty = tile_id / tiles_x_;
    return tx == 0 || tx == tiles_x_ - 1 || ty == 0 || ty == tiles_y_ - 1;
  }

 private:
  /// (ix, iy) of one in-tile offset; both < kMaxTileSide.
  struct InTile {
    std::uint8_t ix, iy;
  };

  /// Validates the constructor arguments before any member derived from
  /// them is built, then returns tiles_x.
  static std::int32_t checked_tiles_x(std::int32_t w, std::int32_t h,
                                      std::int32_t tile) {
    SIMCOV_REQUIRE(w >= 1 && h >= 1, "layout dims must be positive");
    SIMCOV_REQUIRE(tile >= 1, "tile side must be positive");
    SIMCOV_REQUIRE(tile <= kMaxTileSide,
                   "tile side > 32 exceeds one block per tile");
    return (w + tile - 1) / tile;
  }

  std::int32_t w_, h_, tile_;
  std::int32_t tiles_x_, tiles_y_;
  std::uint32_t stride_;  ///< tile_stride(), cached
  util::DivU32 div_tile_, div_tiles_x_;
  std::array<InTile, kMaxTileSide * kMaxTileSide> in_tile_{};
};

}  // namespace simcov::gpu
