#pragma once
// Grid geometry: global voxel ids, coordinates, and von Neumann neighbours.
//
// Neighbour enumeration order is part of the simulation contract: random
// target selection indexes into the neighbour list, and diffusion sums
// neighbour values in list order, so all backends must enumerate
// identically.  The fixed order is -x, +x, -y, +y, -z, +z, skipping
// out-of-bounds entries.
//
// to_coord() sits on the agent hot paths (extravasation attempts, won
// intents, bid replies, the GPU's global -> slot mapping), so it splits an
// id through precomputed reciprocals (util::DivU32) instead of 64-bit
// division; the constructor's 2^32-voxel limit is what makes every id fit
// the 32-bit divider.

#include <array>
#include <cstdint>

#include "core/types.hpp"
#include "util/align.hpp"  // IWYU pragma: export — field layout helpers
#include "util/div_u32.hpp"
#include "util/error.hpp"

namespace simcov {

class Grid {
 public:
  Grid(std::int32_t dx, std::int32_t dy, std::int32_t dz)
      : dx_(checked_dim_x(dx, dy, dz)), dy_(dy), dz_(dz),
        div_x_(static_cast<std::uint32_t>(dx)),
        div_y_(static_cast<std::uint32_t>(dy)) {}

  std::int32_t dim_x() const { return dx_; }
  std::int32_t dim_y() const { return dy_; }
  std::int32_t dim_z() const { return dz_; }
  std::uint64_t num_voxels() const {
    return static_cast<std::uint64_t>(dx_) * dy_ * dz_;
  }
  bool is_2d() const { return dz_ == 1; }

  bool in_bounds(const Coord& c) const {
    return c.x >= 0 && c.x < dx_ && c.y >= 0 && c.y < dy_ && c.z >= 0 &&
           c.z < dz_;
  }

  VoxelId to_id(const Coord& c) const {
    SIMCOV_ASSERT(in_bounds(c), "coordinate out of bounds");
    return (static_cast<VoxelId>(c.z) * dy_ + c.y) * dx_ + c.x;
  }

  Coord to_coord(VoxelId id) const {
    SIMCOV_ASSERT(id < num_voxels(), "voxel id out of bounds");
    const auto n = static_cast<std::uint32_t>(id);
    const std::uint32_t row = div_x_.div(n);  // z * dy + y
    const std::uint32_t z = div_y_.div(row);
    return {static_cast<std::int32_t>(n - row * div_x_.divisor()),
            static_cast<std::int32_t>(row - z * div_y_.divisor()),
            static_cast<std::int32_t>(z)};
  }

  /// The six axis offsets in contract order.
  static constexpr std::array<Coord, 6> kOffsets = {
      Coord{-1, 0, 0}, Coord{+1, 0, 0}, Coord{0, -1, 0},
      Coord{0, +1, 0}, Coord{0, 0, -1}, Coord{0, 0, +1}};

  /// Number of neighbour slots considered (4 in 2D, 6 in 3D).
  int neighbour_slots() const { return is_2d() ? 4 : 6; }

  /// Collects in-bounds von Neumann neighbours of `c` in contract order.
  /// Returns the count; coordinates land in `out`.
  int neighbours(const Coord& c, std::array<Coord, 6>& out) const {
    int n = 0;
    const int slots = neighbour_slots();
    for (int i = 0; i < slots; ++i) {
      Coord nb{c.x + kOffsets[static_cast<std::size_t>(i)].x,
               c.y + kOffsets[static_cast<std::size_t>(i)].y,
               c.z + kOffsets[static_cast<std::size_t>(i)].z};
      if (in_bounds(nb)) out[static_cast<std::size_t>(n++)] = nb;
    }
    return n;
  }

 private:
  /// Validates the dimensions before the dividers are built from them.
  static std::int32_t checked_dim_x(std::int32_t dx, std::int32_t dy,
                                    std::int32_t dz) {
    SIMCOV_REQUIRE(dx >= 1 && dy >= 1 && dz >= 1, "grid dims must be >= 1");
    SIMCOV_REQUIRE(static_cast<std::uint64_t>(dx) * static_cast<std::uint64_t>(dy) *
                           static_cast<std::uint64_t>(dz) <
                       (1ULL << 32),
                   "grid exceeds 2^32 voxels");
    return dx;
  }

  std::int32_t dx_, dy_, dz_;
  util::DivU32 div_x_, div_y_;
};

}  // namespace simcov
