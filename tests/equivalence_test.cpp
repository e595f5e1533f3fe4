// Cross-backend equivalence: the serial reference, the CPU-parallel
// baseline, and the virtual-GPU implementation must produce bit-identical
// simulation state at every step for any decomposition, rank count, tile
// size, and optimization variant.  This is the strongest form of the
// paper's correctness evaluation (§4.1) — their Fig. 5 / Table 2 compare
// statistically; the counter-based RNG design makes exact comparison
// possible here.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "core/rules.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"

namespace simcov {
namespace {

SimParams small_params() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 120;
  p.num_foi = 3;
  p.seed = 1234;
  // Aggressive dynamics so T cells appear and compete within 120 steps.
  p.tcell_initial_delay = 20;
  p.tcell_generation_rate = 6.0;
  p.incubation_period = 8;
  p.expressing_period = 40;
  p.apoptosis_period = 12;
  p.virus_diffusion = 0.4;
  p.infectivity = 0.06;
  p.chem_production = 0.4;
  p.chem_diffusion = 0.8;
  p.tile_side = 8;
  p.tile_check_period = 4;
  return p;
}

std::vector<std::uint64_t> reference_digests(
    const SimParams& p, const std::vector<VoxelId>& foi) {
  ReferenceSim ref(p, foi);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(p.num_steps));
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    out.push_back(ref.state_digest());
  }
  return out;
}

std::vector<std::uint64_t> reference_digests(const SimParams& p) {
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  return reference_digests(p, foi_uniform_random(grid, p.num_foi, p.seed));
}

int first_divergence(const std::vector<std::uint64_t>& a,
                     const std::vector<std::uint64_t>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<int>(i);
  }
  return -1;
}

TEST(Equivalence, CpuMatchesReferenceAcrossRankCounts) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (int ranks : {1, 2, 4, 6}) {
    cpu::CpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = cpu::run_cpu_sim(p, foi, opt);
    ASSERT_EQ(r.digests.size(), ref.size()) << "ranks=" << ranks;
    EXPECT_EQ(first_divergence(ref, r.digests), -1) << "ranks=" << ranks;
  }
}

TEST(Equivalence, CpuLinearDecompositionMatches) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  opt.decomp = Decomposition::Kind::kLinear;
  opt.record_digests = true;
  const auto r = cpu::run_cpu_sim(p, foi, opt);
  EXPECT_EQ(first_divergence(ref, r.digests), -1);
}

// Edges of the CPU backend's ordered active-list builder, which scans each
// padded row's interior 8 flags per word: subdomains narrower than a word
// and widths that leave a scalar tail, one-row strips whose +-y neighbours
// are both ghost rows, and FOI (so virus, chemokine and the T cells they
// attract) on global x/y/z edges and at subdomain corners.
struct ScanCase {
  std::int32_t dim_x, dim_y, dim_z;
  int ranks;
  Decomposition::Kind decomp;
};

SimParams scan_params(const ScanCase& c) {
  SimParams p = small_params();
  p.dim_x = c.dim_x;
  p.dim_y = c.dim_y;
  p.dim_z = c.dim_z;
  p.num_steps = 60;
  p.tcell_initial_delay = 5;
  p.tcell_generation_rate = 20.0;
  return p;
}

/// FOI at the global corners and mid-edges (both z faces in 3D) and on the
/// four voxels around every interior subdomain corner.
std::vector<VoxelId> edge_and_corner_foi(const SimParams& p,
                                         const ScanCase& c) {
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const Decomposition dec(grid, c.ranks, c.decomp);
  const std::int32_t zl = p.dim_z - 1, xl = p.dim_x - 1, yl = p.dim_y - 1;
  std::vector<Coord> at = {{0, 0, 0},       {xl, yl, zl},     {xl, 0, 0},
                           {0, yl, zl},     {xl / 2, 0, zl},  {0, yl / 2, 0},
                           {xl, yl / 2, 0}, {xl / 2, yl, 0}};
  for (int r = 0; r < dec.num_ranks(); ++r) {
    const Coord o = dec.sub(r).origin;
    if (o.x == 0 || o.y == 0) continue;
    for (const Coord d : {Coord{-1, -1, 0}, Coord{0, -1, 0}, Coord{-1, 0, 0},
                          Coord{0, 0, 0}}) {
      at.push_back({o.x + d.x, o.y + d.y, zl / 2});
    }
  }
  std::vector<VoxelId> foi;
  for (const Coord& a : at) foi.push_back(grid.to_id(a));
  std::sort(foi.begin(), foi.end());
  foi.erase(std::unique(foi.begin(), foi.end()), foi.end());
  return foi;
}

void expect_cpu_matches_reference(const ScanCase& c) {
  const SimParams p = scan_params(c);
  const auto foi = edge_and_corner_foi(p, c);
  const auto ref = reference_digests(p, foi);
  cpu::CpuSimOptions opt;
  opt.num_ranks = c.ranks;
  opt.decomp = c.decomp;
  opt.record_digests = true;
  const auto r = cpu::run_cpu_sim(p, foi, opt);
  EXPECT_EQ(first_divergence(ref, r.digests), -1);
  std::uint64_t tcells = 0;
  for (const StepStats& s : r.history) tcells += s.tcells_tissue;
  EXPECT_GT(tcells, 0u) << "no T cell entered the tissue";
}

TEST(Equivalence, CpuNarrowAndRaggedSubdomainWidths) {
  constexpr auto kBlock = Decomposition::Kind::kBlock2D;
  constexpr auto kLinear = Decomposition::Kind::kLinear;
  for (const ScanCase& c : {
           ScanCase{13, 22, 1, 4, kBlock},   // 2x2: widths 7 and 6
           ScanCase{21, 20, 1, 4, kBlock},   // widths 11 and 10: word + tail
           ScanCase{24, 10, 1, 3, kBlock},   // 3x1: widths of exactly 8
           ScanCase{17, 12, 1, 2, kBlock},   // 2x1: widths 9 and 8
           ScanCase{5, 16, 1, 3, kLinear},   // full width below one word
           ScanCase{15, 14, 3, 4, kBlock},   // 3D, widths 8 and 7
       }) {
    SCOPED_TRACE(::testing::Message()
                 << c.dim_x << "x" << c.dim_y << "x" << c.dim_z << " ranks="
                 << c.ranks);
    expect_cpu_matches_reference(c);
  }
}

TEST(Equivalence, CpuLinearOneRowPerRank) {
  // Decomposition rejects more linear ranks than rows, so the limit is a
  // strip of one row per rank: both y neighbours of every voxel are ghosts.
  constexpr auto kLinear = Decomposition::Kind::kLinear;
  for (const ScanCase& c : {
           ScanCase{20, 6, 1, 6, kLinear},   // one row each
           ScanCase{9, 7, 1, 6, kLinear},    // one rank holds two rows
           ScanCase{10, 4, 3, 4, kLinear},   // 3D, one row per plane
       }) {
    SCOPED_TRACE(::testing::Message()
                 << c.dim_x << "x" << c.dim_y << "x" << c.dim_z << " ranks="
                 << c.ranks);
    expect_cpu_matches_reference(c);
  }
}

// Extravasation with the attempt cap binding: a pool far above a small
// max_extravasate_per_step, on ragged grids whose voxel counts are not
// powers of two, so the globally keyed attempt voxels split through every
// rank's ownership test and the apoptosis draws follow from won binds.
TEST(Equivalence, ExtravasationCapBindsOnRaggedGrids) {
  constexpr auto kBlock = Decomposition::Kind::kBlock2D;
  constexpr auto kLinear = Decomposition::Kind::kLinear;
  for (const std::int32_t dim_z : {1, 3}) {
    SimParams p = small_params();
    p.dim_x = 37;
    p.dim_y = dim_z == 1 ? 29 : 13;
    p.dim_z = dim_z;
    p.num_steps = 70;
    p.num_foi = 4;
    p.tcell_initial_delay = 5;
    p.tcell_generation_rate = 60.0;
    p.max_extravasate_per_step = 5;
    const Grid grid(p.dim_x, p.dim_y, p.dim_z);
    const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
    SCOPED_TRACE(::testing::Message() << "dim_z=" << dim_z);

    ReferenceSim ref(p, foi);
    std::vector<std::uint64_t> ref_digests;
    bool cap_hit = false;
    std::uint64_t entered = 0;
    for (std::int64_t s = 0; s < p.num_steps; ++s) {
      const auto attempts = rules::num_extravasation_attempts(
          ref.vascular_pool(), p.max_extravasate_per_step);
      cap_hit |= attempts ==
                 static_cast<std::uint64_t>(p.max_extravasate_per_step);
      ref.step();
      ref_digests.push_back(ref.state_digest());
      entered += ref.history().back().extravasated;
    }
    ASSERT_TRUE(cap_hit) << "the pool never reached the attempt cap";
    ASSERT_GT(entered, 0u) << "no T cell extravasated";

    for (const auto& [ranks, decomp] :
         {std::pair{1, kBlock}, std::pair{3, kLinear}, std::pair{6, kBlock}}) {
      cpu::CpuSimOptions opt;
      opt.num_ranks = ranks;
      opt.decomp = decomp;
      opt.record_digests = true;
      const auto r = cpu::run_cpu_sim(p, foi, opt);
      EXPECT_EQ(first_divergence(ref_digests, r.digests), -1)
          << "cpu ranks=" << ranks;
      if (ranks > 1) {
        EXPECT_GT(r.total_rpcs, 0u) << "cpu ranks=" << ranks;
      }
    }
    if (dim_z == 1) {
      gpu::GpuSimOptions opt;
      opt.num_ranks = 4;
      opt.record_digests = true;
      const auto g = gpu::run_gpu_sim(p, foi, opt);
      EXPECT_EQ(first_divergence(ref_digests, g.digests), -1) << "gpu ranks=4";
    }
  }
}

TEST(Equivalence, GpuMatchesReferenceAllVariants) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (const auto& variant :
       {gpu::GpuVariant::unoptimized(), gpu::GpuVariant::fast_reduction_only(),
        gpu::GpuVariant::memory_tiling_only(), gpu::GpuVariant::combined()}) {
    gpu::GpuSimOptions opt;
    opt.num_ranks = 4;
    opt.variant = variant;
    opt.record_digests = true;
    const auto r = gpu::run_gpu_sim(p, foi, opt);
    ASSERT_EQ(r.digests.size(), ref.size()) << variant.name();
    EXPECT_EQ(first_divergence(ref, r.digests), -1) << variant.name();
  }
}

TEST(Equivalence, GpuMatchesReferenceAcrossRankCounts) {
  const SimParams p = small_params();
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (int ranks : {1, 2, 4, 9}) {
    gpu::GpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = gpu::run_gpu_sim(p, foi, opt);
    EXPECT_EQ(first_divergence(ref, r.digests), -1) << "ranks=" << ranks;
  }
}

/// Tile size x check period sweep: the §3.2 activation policy must be
/// invisible to simulation semantics for every legal combination.
using TileParam = std::tuple<int, int>;  // tile_side, check_period

class TileSweepEquivalence : public ::testing::TestWithParam<TileParam> {};

TEST_P(TileSweepEquivalence, GpuMatchesReference) {
  const auto [tile, period] = GetParam();
  SimParams p = small_params();
  p.num_steps = 80;
  p.tile_side = tile;
  p.tile_check_period = period;
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto r = gpu::run_gpu_sim(p, foi, opt);
  EXPECT_EQ(first_divergence(ref, r.digests), -1)
      << "tile=" << tile << " period=" << period;
}

INSTANTIATE_TEST_SUITE_P(TilePolicies, TileSweepEquivalence,
                         ::testing::Values(TileParam{2, 1}, TileParam{2, 2},
                                           TileParam{4, 2}, TileParam{4, 4},
                                           TileParam{8, 1}, TileParam{8, 8},
                                           TileParam{16, 16},
                                           TileParam{16, 5}));

TEST(Equivalence, UnevenGridAndRankCounts) {
  SimParams p = small_params();
  p.dim_x = 50;   // not divisible by tiles or rank grids
  p.dim_y = 34;
  p.num_steps = 80;
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  for (int ranks : {3, 5, 6}) {
    cpu::CpuSimOptions copt;
    copt.num_ranks = ranks;
    copt.record_digests = true;
    EXPECT_EQ(first_divergence(ref, cpu::run_cpu_sim(p, foi, copt).digests),
              -1)
        << "cpu ranks=" << ranks;
    gpu::GpuSimOptions gopt;
    gopt.num_ranks = ranks;
    gopt.record_digests = true;
    EXPECT_EQ(first_divergence(ref, gpu::run_gpu_sim(p, foi, gopt).digests),
              -1)
        << "gpu ranks=" << ranks;
  }
}

TEST(Equivalence, WithAirwayStructure) {
  SimParams p = small_params();
  p.num_steps = 100;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  // A branching-airway-like cross of empty voxels.
  std::vector<VoxelId> empties;
  for (std::int32_t i = 0; i < 48; ++i) {
    empties.push_back(grid.to_id({24, i, 0}));
    empties.push_back(grid.to_id({i, 24, 0}));
  }
  std::vector<VoxelId> foi = {grid.to_id({10, 10, 0}),
                              grid.to_id({40, 40, 0})};
  ReferenceSim ref(p, foi, empties);
  std::vector<std::uint64_t> ref_digests;
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    ref_digests.push_back(ref.state_digest());
  }
  cpu::CpuSimOptions copt;
  copt.num_ranks = 4;
  copt.record_digests = true;
  EXPECT_EQ(first_divergence(ref_digests,
                             cpu::run_cpu_sim(p, foi, copt, empties).digests),
            -1);
  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 4;
  gopt.record_digests = true;
  EXPECT_EQ(first_divergence(ref_digests,
                             gpu::run_gpu_sim(p, foi, gopt, empties).digests),
            -1);
}

TEST(Equivalence, StressManyTCellsCrossBoundaries) {
  // Saturate the domain with T cells so conflicts (including cross-rank and
  // three-rank-corner competitions) are frequent, then require exact
  // agreement AND that the scenario actually exercised what it claims.
  SimParams p = small_params();
  p.num_steps = 150;
  p.num_foi = 12;
  p.tcell_initial_delay = 5;
  p.tcell_generation_rate = 40.0;
  p.chem_production = 0.8;
  p.chem_diffusion = 1.0;
  const auto ref_digests = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  ReferenceSim ref(p, foi);
  ref.run(p.num_steps);
  ASSERT_GT(ref.history().back().tcells_tissue, 200u)
      << "stress config produced too few T cells to be a stress test";
  ASSERT_GT(ref.history().back().apoptotic() + ref.history().back().dead(),
            50u);

  cpu::CpuSimOptions copt;
  copt.num_ranks = 9;  // 3x3 rank grid: four interior corners
  copt.record_digests = true;
  const auto c = cpu::run_cpu_sim(p, foi, copt);
  EXPECT_EQ(first_divergence(ref_digests, c.digests), -1);
  EXPECT_GT(c.total_rpcs, 100u);  // boundary competition really happened

  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 9;
  gopt.record_digests = true;
  const auto g = gpu::run_gpu_sim(p, foi, gopt);
  EXPECT_EQ(first_divergence(ref_digests, g.digests), -1);
}

/// Seed sweep: equivalence must hold for arbitrary stochastic trajectories,
/// not just the default seed's.
class SeedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedEquivalence, AllBackendsMatchReference) {
  SimParams p = small_params();
  p.seed = GetParam();
  p.num_steps = 90;
  const auto ref = reference_digests(p);
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  cpu::CpuSimOptions copt;
  copt.num_ranks = 4;
  copt.record_digests = true;
  EXPECT_EQ(first_divergence(ref, cpu::run_cpu_sim(p, foi, copt).digests), -1);
  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 4;
  gopt.record_digests = true;
  EXPECT_EQ(first_divergence(ref, gpu::run_gpu_sim(p, foi, gopt).digests), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedEquivalence,
                         ::testing::Values(1ULL, 7ULL, 99ULL, 2024ULL,
                                           0xdeadbeefULL));

TEST(Equivalence, CpuAndGpuAgreeWithEachOtherOnLongRun) {
  SimParams p = small_params();
  p.num_steps = 220;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);
  cpu::CpuSimOptions copt;
  copt.num_ranks = 6;
  copt.record_digests = true;
  gpu::GpuSimOptions gopt;
  gopt.num_ranks = 6;
  gopt.record_digests = true;
  const auto c = cpu::run_cpu_sim(p, foi, copt);
  const auto g = gpu::run_gpu_sim(p, foi, gopt);
  EXPECT_EQ(first_divergence(c.digests, g.digests), -1);
}

}  // namespace
}  // namespace simcov
