// Grid geometry: id/coordinate round trips and the neighbour contract.

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <random>

#include "core/grid.hpp"

namespace simcov {
namespace {

TEST(Grid, RoundTrip2D) {
  const Grid g(7, 5, 1);
  for (VoxelId id = 0; id < g.num_voxels(); ++id) {
    EXPECT_EQ(g.to_id(g.to_coord(id)), id);
  }
}

TEST(Grid, RoundTrip3D) {
  const Grid g(4, 3, 5);
  EXPECT_EQ(g.num_voxels(), 60u);
  for (VoxelId id = 0; id < g.num_voxels(); ++id) {
    EXPECT_EQ(g.to_id(g.to_coord(id)), id);
  }
}

// to_coord splits an id through precomputed reciprocals; check it against
// plain 64-bit / and % on random ids (and both ends of the id range) for
// grids with unit dimensions, non-powers of two and close to 2^32 voxels.
TEST(Grid, ToCoordMatchesDivisionOnRandomIds) {
  std::mt19937_64 gen(0x9e1dULL);
  for (const auto& [dx, dy, dz] : std::initializer_list<std::array<int, 3>>{
           {1, 1, 1}, {1, 17, 1}, {23, 1, 1}, {7, 5, 1}, {1000, 1, 3},
           {1, 1, 9}, {1, 31, 4}, {37, 29, 1}, {13, 11, 7}, {514, 3, 5},
           {65535, 65535, 1}, {2047, 2049, 1023}}) {
    const Grid g(dx, dy, dz);
    const VoxelId n = g.num_voxels();
    for (int i = 0; i < 4000; ++i) {
      const VoxelId id = i == 0 ? 0 : i == 1 ? n - 1 : gen() % n;
      const Coord c = g.to_coord(id);
      const auto ux = static_cast<VoxelId>(dx), uy = static_cast<VoxelId>(dy);
      ASSERT_EQ(c.x, static_cast<std::int32_t>(id % ux)) << id;
      ASSERT_EQ(c.y, static_cast<std::int32_t>(id / ux % uy)) << id;
      ASSERT_EQ(c.z, static_cast<std::int32_t>(id / ux / uy)) << id;
    }
  }
}

TEST(Grid, IdIsRowMajorXFastest) {
  const Grid g(10, 10, 1);
  EXPECT_EQ(g.to_id({3, 2, 0}), 23u);
  EXPECT_EQ(g.to_id({0, 0, 0}), 0u);
  EXPECT_EQ(g.to_id({9, 9, 0}), 99u);
}

TEST(Grid, NeighbourContractOrder2D) {
  const Grid g(5, 5, 1);
  std::array<Coord, 6> nb;
  const int n = g.neighbours({2, 2, 0}, nb);
  ASSERT_EQ(n, 4);
  EXPECT_EQ(nb[0], (Coord{1, 2, 0}));  // -x first
  EXPECT_EQ(nb[1], (Coord{3, 2, 0}));  // +x
  EXPECT_EQ(nb[2], (Coord{2, 1, 0}));  // -y
  EXPECT_EQ(nb[3], (Coord{2, 3, 0}));  // +y
}

TEST(Grid, NeighboursClippedAtBoundary) {
  const Grid g(5, 5, 1);
  std::array<Coord, 6> nb;
  EXPECT_EQ(g.neighbours({0, 0, 0}, nb), 2);
  EXPECT_EQ(nb[0], (Coord{1, 0, 0}));  // +x survives, -x clipped
  EXPECT_EQ(nb[1], (Coord{0, 1, 0}));
  EXPECT_EQ(g.neighbours({4, 2, 0}, nb), 3);
}

TEST(Grid, Neighbours3DIncludeZ) {
  const Grid g(3, 3, 3);
  std::array<Coord, 6> nb;
  EXPECT_EQ(g.neighbours({1, 1, 1}, nb), 6);
  EXPECT_EQ(nb[4], (Coord{1, 1, 0}));
  EXPECT_EQ(nb[5], (Coord{1, 1, 2}));
  // 2D grids must never look across z even at z bounds.
  const Grid g2(3, 3, 1);
  EXPECT_EQ(g2.neighbours({1, 1, 0}, nb), 4);
}

TEST(Grid, SingleVoxelGridHasNoNeighbours) {
  const Grid g(1, 1, 1);
  std::array<Coord, 6> nb;
  EXPECT_EQ(g.neighbours({0, 0, 0}, nb), 0);
}

TEST(Grid, InvalidDimensionsThrow) {
  EXPECT_THROW(Grid(0, 5, 1), Error);
  EXPECT_THROW(Grid(5, -1, 1), Error);
  EXPECT_THROW(Grid(1 << 16, 1 << 16, 2), Error);  // > 2^32 voxels
}

TEST(Grid, InBounds) {
  const Grid g(4, 4, 1);
  EXPECT_TRUE(g.in_bounds({0, 0, 0}));
  EXPECT_TRUE(g.in_bounds({3, 3, 0}));
  EXPECT_FALSE(g.in_bounds({4, 0, 0}));
  EXPECT_FALSE(g.in_bounds({0, -1, 0}));
  EXPECT_FALSE(g.in_bounds({0, 0, 1}));
}

}  // namespace
}  // namespace simcov
