// Backend-specific behaviour: statistics consistency, communication and
// device counters, variant effects, and misuse rejection for both parallel
// implementations plus the harness wrappers.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/reference_sim.hpp"
#include "harness/experiment.hpp"
#include "simcov_cpu/cpu_sim.hpp"
#include "simcov_gpu/gpu_sim.hpp"

namespace simcov {
namespace {

SimParams small() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 100;
  p.num_foi = 3;
  p.tcell_initial_delay = 20;
  p.tcell_generation_rate = 6.0;
  p.incubation_period = 8;
  return p;
}

std::vector<VoxelId> foi_for(const SimParams& p) {
  const Grid g(p.dim_x, p.dim_y, p.dim_z);
  return foi_uniform_random(g, p.num_foi, p.seed);
}

ReferenceSim run_reference(const SimParams& p) {
  ReferenceSim ref(p, foi_for(p));
  ref.run(p.num_steps);
  return ref;
}

void expect_history_matches(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Integer statistics are exact; float totals are summed in different
    // orders across backends, so compare with a tight relative tolerance.
    ASSERT_EQ(a[i].epi_counts, b[i].epi_counts) << "step " << i;
    ASSERT_EQ(a[i].tcells_tissue, b[i].tcells_tissue) << "step " << i;
    ASSERT_EQ(a[i].extravasated, b[i].extravasated) << "step " << i;
    ASSERT_NEAR(a[i].virus_total, b[i].virus_total,
                1e-9 * (1.0 + a[i].virus_total))
        << "step " << i;
    ASSERT_NEAR(a[i].chem_total, b[i].chem_total,
                1e-9 * (1.0 + a[i].chem_total))
        << "step " << i;
  }
}

// ---------------------------------------------------------------------------
// SIMCoV-CPU
// ---------------------------------------------------------------------------

TEST(CpuSim, HistoryMatchesReference) {
  const SimParams p = small();
  const auto ref = run_reference(p);
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
  expect_history_matches(ref.history(), r.history);
}

TEST(CpuSim, CrossBoundaryTrafficHappens) {
  const SimParams p = small();
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
  EXPECT_GT(r.total_rpcs, 0u) << "no T cell ever crossed a rank boundary — "
                                 "the test configuration is too tame";
  EXPECT_GT(r.total_put_bytes, 0u);  // concentration halos
  EXPECT_GT(r.cost.total_s, 0.0);
}

TEST(CpuSim, RunToRunReproducible) {
  const SimParams p = small();
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto a = cpu::run_cpu_sim(p, foi_for(p), opt);
  const auto b = cpu::run_cpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(a.digests, b.digests);
  expect_history_matches(a.history, b.history);
}

TEST(CpuSim, SingleRankNeedsNoCommunication) {
  const SimParams p = small();
  cpu::CpuSimOptions opt;
  opt.num_ranks = 1;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(r.total_rpcs, 0u);
  EXPECT_EQ(r.total_put_bytes, 0u);
}

TEST(CpuSim, Runs3DAndMatchesReference) {
  SimParams p = small();
  p.dim_x = 24;
  p.dim_y = 24;
  p.dim_z = 4;
  p.num_steps = 80;
  const Grid g(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(g, 3, p.seed);
  ReferenceSim ref(p, foi);
  std::vector<std::uint64_t> ref_digests;
  for (std::int64_t s = 0; s < p.num_steps; ++s) {
    ref.step();
    ref_digests.push_back(ref.state_digest());
  }
  for (int ranks : {1, 4, 6}) {
    cpu::CpuSimOptions opt;
    opt.num_ranks = ranks;
    opt.record_digests = true;
    const auto r = cpu::run_cpu_sim(p, foi, opt);
    ASSERT_EQ(r.digests, ref_digests) << "ranks=" << ranks;
  }
}

TEST(CpuSim, EmptyVoxelsRespected) {
  SimParams p = small();
  const Grid g(p.dim_x, p.dim_y, p.dim_z);
  std::vector<VoxelId> empties;
  for (std::int32_t y = 0; y < p.dim_y; ++y) {
    empties.push_back(g.to_id({24, y, 0}));
  }
  ReferenceSim ref(p, foi_for(p), empties);
  ref.run(p.num_steps);
  cpu::CpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto r = cpu::run_cpu_sim(p, foi_for(p), opt, empties);
  EXPECT_EQ(r.digests.back(), ref.state_digest());
}

// Tripwire, the CPU twin of GpuRun.PerPhaseCountersOfAFixedRunArePinned:
// the modeled per-phase seconds and every step's field totals of two small
// fixed SIMCoV-CPU runs, pinned as exact doubles.  The per-phase seconds
// price the counted work (voxel updates, active-list operations, messages)
// and the totals are summed in active-list order, so a host-side rewrite of
// the active list must keep its contents, its order and its counted
// operations exactly as they are.  The 2D run seeds a FOI at a corner where
// four subdomains meet and sends T cells across rank boundaries; the 3D run
// marks across z planes.
struct PinnedCpuRun {
  std::array<double, perfmodel::kNumPhases> by_phase;
  std::vector<std::array<double, 2>> totals;  ///< virus, chem per step
};

void expect_pinned(const cpu::CpuRunResult& r, const PinnedCpuRun& want) {
  for (int ph = 0; ph < perfmodel::kNumPhases; ++ph) {
    EXPECT_EQ(r.cost.by_phase[static_cast<std::size_t>(ph)],
              want.by_phase[static_cast<std::size_t>(ph)])
        << perfmodel::phase_name(static_cast<perfmodel::Phase>(ph));
  }
  ASSERT_EQ(r.history.size(), want.totals.size());
  for (std::size_t s = 0; s < want.totals.size(); ++s) {
    EXPECT_EQ(r.history[s].virus_total, want.totals[s][0]) << "step " << s;
    EXPECT_EQ(r.history[s].chem_total, want.totals[s][1]) << "step " << s;
  }
}

TEST(CpuRun, PerPhaseCountersOfAFixedRunArePinned) {
  // Per phase (t_cells, epithelial, concentrations, halo, tile_sweep,
  // reduce_stats) modeled seconds, then {virus_total, chem_total} per step.
  const PinnedCpuRun want_2d = {
      {0x1.fb6323304515cp-11, 0x1.7b4bd0b8ea978p-12, 0x1.b36031580e35bp-9,
       0x1.04e3f662de8d5p-10, 0x0p+0, 0x1.d37743452fd64p-11},
      {
          {0x1.fdf3b6p+0, 0x0p+0},
          {0x1.fbe9852p+0, 0x0p+0},
          {0x1.072e266ep+1, 0x0p+0},
          {0x1.105e178aap+1, 0x0p+0},
          {0x1.1984bc06598p+1, 0x0p+0},
          {0x1.22a252749fdp+1, 0x0p+0},
          {0x1.2bb72865c1eep+1, 0x0p+0},
          {0x1.34c38f9bd43d8p+1, 0x1.999999p-2},
          {0x1.3dc7d29dff9e6p+1, 0x1.978d4fcp-1},
          {0x1.5b3f11f33173fp+1, 0x1.302364cp+0},
          {0x1.7899a368a35bap+1, 0x1.937f33dep+0},
          {0x1.95d7bd1768a6dp+1, 0x1.f5dca620cp+0},
          {0x1.b2f987ac61bc3p+1, 0x1.5ed2571ba8p+1},
          {0x1.cfff1db30a5bap+1, 0x1.c1b6a31f43p+1},
          {0x1.ece8908e1b667p+1, 0x1.11cee29cff4p+2},
          {0x1.04daf5049c7d7p+2, 0x1.4245229f706p+2},
          {0x1.1852508d78fd6p+2, 0x1.723f52cd9028p+2},
          {0x1.30d51f198c5c2p+2, 0x1.a1beb0e598d9p+2},
          {0x1.493f71adc5fc7p+2, 0x1.ea5e100d807b6p+2},
          {0x1.619155b552713p+2, 0x1.1921c3142738cp+3},
          {0x1.79cadd2b697d6p+2, 0x1.3cb8773213405p+3},
          {0x1.91ec1e69dd4b8p+2, 0x1.6cc0dc7856461p+3},
          {0x1.a9f5369af34bcp+2, 0x1.9c4e4b0611b8fp+3},
          {0x1.c1e6495d0b944p+2, 0x1.cb621f5a5bcc4p+3},
          {0x1.d9bf7f2fbaca2p+2, 0x1.0365561fb46a3p+4},
          {0x1.f181052094518p+2, 0x1.20ce574c9f956p+4},
          {0x1.0495852e7e468p+3, 0x1.3deda53b89b3dp+4},
          {0x1.157d982eef0cdp+3, 0x1.5985ea8d13c7cp+4},
          {0x1.2654ddc9f5f0ap+3, 0x1.73307576cde0ep+4},
          {0x1.371b7337695e1p+3, 0x1.8bcea24c85d41p+4},
          {0x1.47d1755bbae34p+3, 0x1.a3abdc94b88d6p+4},
          {0x1.5b065cb00c3b8p+3, 0x1.b5f28333fd7e4p+4},
          {0x1.70b7a6cbc9fbep+3, 0x1.c7d903e033898p+4},
          {0x1.88e30a7ae1e41p+3, 0x1.e6882cff19127p+4},
          {0x1.a0f6f401137f2p+3, 0x1.0328de2bb507ap+5},
          {0x1.bb8323f5e88fcp+3, 0x1.115bf98332899p+5},
          {0x1.dda40a8157192p+3, 0x1.1ed7eff801458p+5},
          {0x1.0119adf0a2b1bp+4, 0x1.2eb3c977802a7p+5},
          {0x1.14a24a5bdf3f4p+4, 0x1.43a3d2946719cp+5},
          {0x1.2966f0ac68a87p+4, 0x1.5785d29561856p+5},
          {0x1.40ab9a78e9ea5p+4, 0x1.6cde10757bc3ep+5},
          {0x1.57dcb78d2cf4ep+4, 0x1.801dfb66af4f2p+5},
          {0x1.6c69e441a0aa6p+4, 0x1.9388642eccd78p+5},
          {0x1.84bb7e5b2d7cdp+4, 0x1.ac97369e8acdfp+5},
          {0x1.9e3dd2d19bd16p+4, 0x1.c0784c36cca62p+5},
          {0x1.b7a7ac1d1b494p+4, 0x1.d7e2b7a9fc9c5p+5},
          {0x1.d3884d29973f6p+4, 0x1.ef988ea04f1b5p+5},
          {0x1.f09790db5750fp+4, 0x1.07a298aac233p+6}
      },
  };
  const PinnedCpuRun want_3d = {
      {0x1.05e0fa09148b9p-11, 0x1.f185e9b96c9dbp-12, 0x1.ae0653a5ba3f4p-9,
       0x1.94c20bad0422p-11, 0x0p+0, 0x1.dea484959979ap-12},
      {
          {0x1.f727124p+0, 0x0p+0},
          {0x1.efd004cp+0, 0x0p+0},
          {0x1.e9b00307p+0, 0x0p+0},
          {0x1.e487da48e8p+0, 0x0p+0},
          {0x1.e023fcaf35cp+0, 0x0p+0},
          {0x1.f161bd8bccdp+0, 0x0p+0},
          {0x1.01b8c3f9abb28p+1, 0x0p+0},
          {0x1.0b10c2f7f9392p+1, 0x0p+0},
          {0x1.14a5718301f6ap+1, 0x0p+0},
          {0x1.1e67b4080bf26p+1, 0x0p+0},
          {0x1.284bc52d28b76p+1, 0x1.af7202p-2},
          {0x1.3248757ba1fep+1, 0x1.b37ce17p-1},
          {0x1.3c56958e6ef68p+1, 0x1.4855af624p+0},
          {0x1.46708453c021ep+1, 0x1.b6f81319p+0},
          {0x1.5091d60940222p+1, 0x1.12a36343b9p+1},
          {0x1.5ab71054d856ap+1, 0x1.49852fedf96p+1},
          {0x1.64dd768a5d47ep+1, 0x1.8010aa7d3278p+1},
          {0x1.6f02df1e30f72p+1, 0x1.b63b493b89f98p+1},
          {0x1.7925955df46dfp+1, 0x1.ebfe2325680f3p+1},
          {0x1.83443fc2c2bfep+1, 0x1.10aa3f0d34b02p+2},
          {0x1.8d5dccfb1b70cp+1, 0x1.2b1d7f652423cp+2},
          {0x1.a1f4bbff7f425p+1, 0x1.45579a1b51a7cp+2},
          {0x1.b6b10a1d25733p+1, 0x1.5f57a97fb7d33p+2},
          {0x1.d5a0a30f2f9bep+1, 0x1.791d053439515p+2},
          {0x1.fe93f3428d5b8p+1, 0x1.92a734a8b50ebp+2},
          {0x1.13a4908b92464p+2, 0x1.abf5e5c9b45bap+2},
          {0x1.27e27f1557fd2p+2, 0x1.c508e7c9cfc62p+2},
          {0x1.3c05ab0f41d93p+2, 0x1.08e10d69b71f6p+3},
          {0x1.500f9434d7dfep+2, 0x1.2f0ef4ac8029p+3},
          {0x1.64016b3aa6784p+2, 0x1.616e580a2d4bep+3},
          {0x1.77dc228120b3bp+2, 0x1.932c969961be9p+3},
          {0x1.90adba366b58dp+2, 0x1.c459a4021f65cp+3},
          {0x1.ae63f13bc36dap+2, 0x1.f4ff081c21726p+3},
          {0x1.cbe2349e9540ap+2, 0x1.12915e4681fafp+4},
          {0x1.ee3b971d32e5p+2, 0x1.2a645b3b51cc7p+4},
          {0x1.082a4c68c697p+3, 0x1.41f9e49760764p+4}
      },
  };

  SimParams p = SimParams::bench_fast();
  p.dim_x = 40;
  p.dim_y = 36;
  p.num_steps = 48;
  p.seed = 5;
  p.incubation_period = 6;
  p.expressing_period = 30;
  p.apoptosis_period = 10;
  p.tcell_initial_delay = 12;
  p.tcell_generation_rate = 6.0;
  p.virus_diffusion = 0.4;
  p.infectivity = 0.08;
  p.chem_production = 0.4;
  p.chem_diffusion = 0.8;
  // Activity floors far below the defaults keep concentrations down to
  // ~1e-12 alive.  With the default floors and totals this small, every
  // double sum of the float fields is exact, so any list order would give
  // the same bits; here a different order changes them.
  p.min_virus = 1e-12;
  p.min_chem = 1e-12;
  {
    SCOPED_TRACE("2D, 4 ranks");
    const Grid g(p.dim_x, p.dim_y, p.dim_z);
    cpu::CpuSimOptions opt;
    opt.num_ranks = 4;  // 2x2: subdomains meet at (20, 18)
    const auto r = cpu::run_cpu_sim(
        p, {g.to_id({19, 17, 0}), g.to_id({33, 5, 0})}, opt);
    EXPECT_GT(r.total_rpcs, 0u);  // T cells crossed rank boundaries
    expect_pinned(r, want_2d);
  }
  {
    SCOPED_TRACE("3D, 2 ranks");
    p.dim_x = 24;
    p.dim_y = 20;
    p.dim_z = 3;
    p.num_steps = 36;
    p.tcell_initial_delay = 6;
    p.tcell_generation_rate = 10.0;
    const Grid g(p.dim_x, p.dim_y, p.dim_z);
    cpu::CpuSimOptions opt;
    opt.num_ranks = 2;
    const auto r = cpu::run_cpu_sim(
        p, {g.to_id({11, 9, 0}), g.to_id({12, 3, 2})}, opt);
    EXPECT_GT(r.total_rpcs, 0u);
    expect_pinned(r, want_3d);
  }
}

// ---------------------------------------------------------------------------
// SIMCoV-GPU
// ---------------------------------------------------------------------------

TEST(GpuSim, HistoryMatchesReference) {
  const SimParams p = small();
  const auto ref = run_reference(p);
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = gpu::run_gpu_sim(p, foi_for(p), opt);
  expect_history_matches(ref.history(), r.history);
}

TEST(GpuSim, DeviceCountersPopulated) {
  const SimParams p = small();
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  const auto r = gpu::run_gpu_sim(p, foi_for(p), opt);
  EXPECT_GT(r.device_total.kernel_launches, 0u);
  EXPECT_GT(r.device_total.global_read_bytes, 0u);
  EXPECT_GT(r.device_total.threads_executed, 0u);
  EXPECT_GT(r.total_put_bytes, 0u);  // halo waves
  EXPECT_GT(r.cost.total_s, 0.0);
}

TEST(GpuSim, TilingSkipsInactiveWork) {
  // On a sparse simulation the tiling variant must execute far fewer
  // threads than the unoptimized full-sweep variant.
  SimParams p = small();
  p.dim_x = 128;
  p.dim_y = 128;
  p.num_foi = 1;
  p.num_steps = 40;
  p.tile_side = 4;               // many tiles, small always-active border
  p.tile_check_period = 4;
  p.tcell_initial_delay = 1000;  // no T cells
  p.min_virus = 1e-3;            // tight floors keep the fields localized
  p.min_chem = 1e-3;
  gpu::GpuSimOptions tiled;
  tiled.num_ranks = 1;
  tiled.variant = gpu::GpuVariant::memory_tiling_only();
  gpu::GpuSimOptions full;
  full.num_ranks = 1;
  full.variant = gpu::GpuVariant::unoptimized();
  const auto rt = gpu::run_gpu_sim(p, foi_for(p), tiled);
  const auto rf = gpu::run_gpu_sim(p, foi_for(p), full);
  EXPECT_LT(rt.device_total.threads_executed,
            rf.device_total.threads_executed / 2);
  expect_history_matches(rt.history, rf.history);
}

TEST(GpuSim, FastReductionSlashesAtomics) {
  const SimParams p = small();
  gpu::GpuSimOptions tree;
  tree.num_ranks = 2;
  tree.variant = gpu::GpuVariant::fast_reduction_only();
  gpu::GpuSimOptions atomic;
  atomic.num_ranks = 2;
  atomic.variant = gpu::GpuVariant::unoptimized();
  const auto rt = gpu::run_gpu_sim(p, foi_for(p), tree);
  const auto ra = gpu::run_gpu_sim(p, foi_for(p), atomic);
  EXPECT_LT(rt.device_total.atomic_ops, ra.device_total.atomic_ops / 10);
}

TEST(GpuSim, VariantNames) {
  EXPECT_EQ(gpu::GpuVariant::unoptimized().name(), "Unoptimized");
  EXPECT_EQ(gpu::GpuVariant::fast_reduction_only().name(), "Fast Reduction");
  EXPECT_EQ(gpu::GpuVariant::memory_tiling_only().name(), "Memory Tiling");
  EXPECT_EQ(gpu::GpuVariant::combined().name(), "Combined");
}

TEST(GpuSim, Rejects3D) {
  SimParams p = small();
  p.dim_z = 2;
  gpu::GpuSimOptions opt;
  opt.num_ranks = 2;
  EXPECT_THROW(gpu::run_gpu_sim(p, {}, opt), Error);
}

TEST(GpuSim, RunToRunReproducible) {
  const SimParams p = small();
  gpu::GpuSimOptions opt;
  opt.num_ranks = 4;
  opt.record_digests = true;
  const auto a = gpu::run_gpu_sim(p, foi_for(p), opt);
  const auto b = gpu::run_gpu_sim(p, foi_for(p), opt);
  EXPECT_EQ(a.digests, b.digests);
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

TEST(Harness, ResolveFoiDeterministic) {
  harness::RunSpec spec;
  spec.params = small();
  const auto a = spec.resolve_foi();
  const auto b = spec.resolve_foi();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), static_cast<std::size_t>(spec.params.num_foi));
  spec.foi = {1, 2, 3};
  EXPECT_EQ(spec.resolve_foi().size(), 3u);
}

TEST(Harness, BackendsAgreeThroughWrappers) {
  harness::RunSpec spec;
  spec.params = small();
  spec.params.num_steps = 60;
  const auto ref = harness::run_reference(spec);
  const auto c = harness::run_cpu(spec, 4);
  const auto g = harness::run_gpu(spec, 4);
  expect_history_matches(ref.history, c.history);
  expect_history_matches(ref.history, g.history);
  EXPECT_GT(c.modeled_seconds, 0.0);
  EXPECT_GT(g.modeled_seconds, 0.0);
  EXPECT_DOUBLE_EQ(harness::speedup(c, g),
                   c.modeled_seconds / g.modeled_seconds);
}

TEST(Harness, CpusForGpusMatchesPaperRatio) {
  EXPECT_EQ(harness::cpus_for_gpus(4), 128);
  EXPECT_EQ(harness::cpus_for_gpus(64), 2048);
}

}  // namespace
}  // namespace simcov
