// Performance model: pricing, phase accounting, the bulk-synchronous
// max-fold, and area-scale extrapolation.

#include <gtest/gtest.h>

#include "perfmodel/cost_model.hpp"

namespace simcov::perfmodel {
namespace {

MachineSpec spec() { return MachineSpec::perlmutter_like(); }

TEST(CostModel, ZeroSampleIsFree) {
  const CostModel m(spec(), Backend::kGpu, 4);
  EXPECT_DOUBLE_EQ(m.price(WorkSample{}), 0.0);
}

TEST(CostModel, GpuPricingMonotoneInEachCounter) {
  const CostModel m(spec(), Backend::kGpu, 4);
  WorkSample base;
  const double t0 = m.price(base);
  auto bump = [&](auto mutate) {
    WorkSample s = base;
    mutate(s);
    return m.price(s);
  };
  EXPECT_GT(bump([](WorkSample& s) { s.dev.kernel_launches = 10; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.dev.threads_executed = 1000; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.dev.global_read_bytes = 1 << 20; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.dev.atomic_ops = 1000; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.dev.h2d_bytes = 1 << 20; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.comm.puts = 4; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.comm.put_bytes = 1 << 20; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.comm.reductions = 1; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.comm.broadcasts = 1; }), t0);
  EXPECT_GT(bump([](WorkSample& s) { s.comm.broadcast_bytes = 1 << 20; }), t0);
}

TEST(CostModel, BroadcastsArePricedOnBothBackends) {
  // Regression: broadcasts used to be invisible to the perfmodel.
  WorkSample s;
  s.comm.broadcasts = 10;
  s.comm.broadcast_bytes = 1 << 20;
  EXPECT_GT(CostModel(spec(), Backend::kGpu, 4).price(s), 0.0);
  EXPECT_GT(CostModel(spec(), Backend::kCpu, 4).price(s), 0.0);
  // Like the reductions, latency grows with log2 of the world size.
  WorkSample lat;
  lat.comm.broadcasts = 100;
  const CostModel small(spec(), Backend::kGpu, 3);
  const CostModel big(spec(), Backend::kGpu, 63);
  EXPECT_NEAR(big.price(lat), 3.0 * small.price(lat), 1e-9);
}

TEST(CostModel, CpuPricingUsesCpuCounters) {
  const CostModel m(spec(), Backend::kCpu, 4);
  WorkSample s;
  s.dev.global_read_bytes = 1 << 30;  // GPU counters ignored on CPU
  EXPECT_DOUBLE_EQ(m.price(s), 0.0);
  s.cpu_voxel_updates = 1000;
  EXPECT_GT(m.price(s), 0.0);
}

TEST(CostModel, MemPenaltyScalesTrafficAndAtomics) {
  const CostModel m(spec(), Backend::kGpu, 4);
  WorkSample s;
  s.dev.global_read_bytes = 1 << 20;
  s.dev.atomic_ops = 1000;
  const double fast = m.price(s);
  s.mem_penalty = 1.6;
  EXPECT_NEAR(m.price(s), 1.6 * fast, 1e-12);
}

TEST(CostModel, AreaScaleExtrapolatesPerVoxelWork) {
  WorkSample s;
  s.cpu_voxel_updates = 1000;
  const CostModel m1(spec(), Backend::kCpu, 4, 1.0);
  const CostModel m4(spec(), Backend::kCpu, 4, 4.0);
  EXPECT_NEAR(m4.price(s), 4.0 * m1.price(s), 1e-12);
  // Halo bytes scale with the boundary: sqrt(area).
  WorkSample h;
  h.comm.put_bytes = 1 << 20;
  EXPECT_NEAR(m4.price(h), 2.0 * m1.price(h), 1e-12);
}

TEST(CostModel, CollectivesScaleWithLogWorldSize) {
  WorkSample s;
  s.comm.reductions = 100;
  const CostModel small(spec(), Backend::kGpu, 3);
  const CostModel big(spec(), Backend::kGpu, 63);
  EXPECT_NEAR(big.price(s), 3.0 * small.price(s), 1e-9);  // log2(64)/log2(4)
}

TEST(CostModel, InvalidConstruction) {
  EXPECT_THROW(CostModel(spec(), Backend::kGpu, 0), Error);
  EXPECT_THROW(CostModel(spec(), Backend::kGpu, 4, 0.5), Error);
}

TEST(RankCostLog, AccumulatesPhasesPerStep) {
  const CostModel m(spec(), Backend::kCpu, 2);
  RankCostLog log(m);
  WorkSample s;
  s.cpu_voxel_updates = 100;
  log.add(Phase::kTCells, s);
  log.add(Phase::kTCells, s);  // same phase twice accumulates
  log.add(Phase::kReduceStats, s);
  log.end_step();
  log.end_step();  // an empty step
  ASSERT_EQ(log.num_steps(), 2u);
  EXPECT_NEAR(log.cost(0, Phase::kTCells), 2 * m.price(s), 1e-15);
  EXPECT_NEAR(log.cost(0, Phase::kReduceStats), m.price(s), 1e-15);
  EXPECT_DOUBLE_EQ(log.cost(1, Phase::kTCells), 0.0);
  EXPECT_THROW(log.cost(2, Phase::kTCells), Error);
}

TEST(Fold, TakesPerStepPerPhaseMax) {
  const CostModel m(spec(), Backend::kCpu, 2);
  RankCostLog a(m), b(m);
  WorkSample big, small;
  big.cpu_voxel_updates = 1000;
  small.cpu_voxel_updates = 10;
  // Step 0: a busy in tcells, b busy in reduce.
  a.add(Phase::kTCells, big);
  b.add(Phase::kTCells, small);
  a.add(Phase::kReduceStats, small);
  b.add(Phase::kReduceStats, big);
  a.end_step();
  b.end_step();
  std::vector<RankCostLog> logs;
  logs.push_back(a);
  logs.push_back(b);
  const RunCost rc = fold(std::span<const RankCostLog>(logs));
  const double expect = 2 * m.price(big);  // max in each phase is `big`
  EXPECT_NEAR(rc.total_s, expect, 1e-15);
  EXPECT_NEAR(rc.update_agents_s(), m.price(big), 1e-15);
  EXPECT_NEAR(rc.reduce_stats_s(), m.price(big), 1e-15);
}

// Round GPU prices, so the expected seconds below are worked out by hand.
MachineSpec round_gpu_spec() {
  MachineSpec s;
  s.gpu.kernel_launch_s = 1.0;
  s.gpu.thread_s = 0.5;
  s.gpu.global_byte_s = 0.25;
  s.gpu.atomic_s = 2.0;
  s.gpu.link_latency_s = 4.0;
  return s;
}

// 3 launches, 10 threads, 100 + 28 bytes, 5 atomics, 2 puts.  With
// area_scale 4: launches 3, threads 10*0.5*4 = 20, bytes 128*0.25*4 = 128,
// atomics 5*2*4 = 40, puts 2*4 = 8.  At penalty 1: 199 s; at penalty 1.6
// the byte and atomic terms grow by 0.6 * 168 = 100.8 to 299.8 s.
WorkSample untiled_gpu_sample() {
  WorkSample s;
  s.dev.kernel_launches = 3;
  s.dev.threads_executed = 10;
  s.dev.global_read_bytes = 100;
  s.dev.global_write_bytes = 28;
  s.dev.atomic_ops = 5;
  s.comm.puts = 2;
  s.mem_penalty = 1.6;
  return s;
}

TEST(Fold, TiledLayoutArrayPricesEverySampleAtPenaltyOne) {
  const CostModel m(round_gpu_spec(), Backend::kGpu, 1, 4.0);
  RankCostLog log(m);
  log.add(Phase::kReduceStats, untiled_gpu_sample());
  log.end_step();
  EXPECT_NEAR(log.cost(0, Phase::kReduceStats), 299.8, 1e-12);
  EXPECT_DOUBLE_EQ(log.cost_tiled_layout(0, Phase::kReduceStats), 199.0);

  std::vector<RankCostLog> logs{log};
  const RunCost rc = fold(std::span<const RankCostLog>(logs));
  const auto r = static_cast<std::size_t>(Phase::kReduceStats);
  // by_phase keeps the penalty; the tiled-layout array is smaller by
  // exactly 0.6 * (byte + atomic terms) * area scale.
  EXPECT_NEAR(rc.by_phase[r], 299.8, 1e-12);
  EXPECT_DOUBLE_EQ(rc.by_phase_tiled_layout[r], 199.0);
  EXPECT_NEAR(rc.by_phase[r] - rc.by_phase_tiled_layout[r],
              0.6 * (128 * 0.25 + 5 * 2.0) * 4.0, 1e-12);
  EXPECT_NEAR(rc.total_s, 299.8, 1e-12);  // total_s stays on by_phase
}

TEST(Fold, TiledLayoutArrayEqualsByPhaseWithoutAPenalty) {
  // A GPU sample at penalty 1 ...
  const CostModel gpu(round_gpu_spec(), Backend::kGpu, 1, 4.0);
  RankCostLog g(gpu);
  WorkSample tiled = untiled_gpu_sample();
  tiled.mem_penalty = 1.0;
  g.add(Phase::kTCells, tiled);
  g.end_step();
  // ... and a CPU sample, whose pricing has no memory-penalty term.
  const CostModel cpu(spec(), Backend::kCpu, 1, 4.0);
  RankCostLog c(cpu);
  WorkSample s;
  s.cpu_voxel_updates = 1000;
  s.comm.rpcs_sent = 7;
  s.mem_penalty = 1.6;
  c.add(Phase::kTCells, s);
  c.end_step();
  for (const RankCostLog* log : {&g, &c}) {
    const RunCost rc = fold(std::span<const RankCostLog* const>(&log, 1));
    EXPECT_EQ(rc.by_phase, rc.by_phase_tiled_layout);
  }
  EXPECT_DOUBLE_EQ(
      fold(std::span<const RankCostLog>(&g, 1)).by_phase_tiled_layout[0],
      199.0);
}

TEST(Fold, TiledLayoutArrayTakesPerStepPerPhaseMax) {
  const CostModel m(round_gpu_spec(), Backend::kGpu, 2, 4.0);
  RankCostLog a(m), b(m);
  // Rank a is memory-bound (299.8 s priced, 199 s tiled); rank b is
  // launch-bound (250 s either way), so the two arrays bind on different
  // ranks and each must be folded on its own.
  WorkSample launches;
  launches.dev.kernel_launches = 250;
  launches.mem_penalty = 1.6;
  for (int step = 0; step < 2; ++step) {
    a.add(Phase::kConcentrations, untiled_gpu_sample());
    b.add(Phase::kConcentrations, launches);
    a.end_step();
    b.end_step();
  }
  std::vector<RankCostLog> logs{a, b};
  const RunCost rc = fold(std::span<const RankCostLog>(logs));
  const auto c = static_cast<std::size_t>(Phase::kConcentrations);
  EXPECT_NEAR(rc.by_phase[c], 2 * 299.8, 1e-12);
  EXPECT_DOUBLE_EQ(rc.by_phase_tiled_layout[c], 2 * 250.0);
}

TEST(Fold, RejectsMismatchedStepCounts) {
  const CostModel m(spec(), Backend::kCpu, 2);
  RankCostLog a(m), b(m);
  a.end_step();
  std::vector<RankCostLog> logs;
  logs.push_back(a);
  logs.push_back(b);
  EXPECT_THROW(fold(std::span<const RankCostLog>(logs)), Error);
}

TEST(Phases, NamesAndCategories) {
  EXPECT_STREQ(phase_name(Phase::kReduceStats), "reduce_stats");
  EXPECT_STREQ(phase_name(Phase::kTileSweep), "tile_sweep");
  EXPECT_TRUE(is_update_phase(Phase::kTCells));
  EXPECT_TRUE(is_update_phase(Phase::kHalo));
  EXPECT_FALSE(is_update_phase(Phase::kReduceStats));
}

}  // namespace
}  // namespace simcov::perfmodel
