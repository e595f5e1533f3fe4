// KernelCheck: the virtual-GPU race & determinism analyzer.
//
// Each negative test runs a deliberately broken kernel twice over the
// design: with the checker off it completes silently (the sequential
// substrate executes *one* legal schedule, so the race is invisible), and
// with the checker on the launch throws a diagnostic naming the rule, the
// kernel, the buffer and the first conflicting pair.  Positive tests pin
// down that the blessed patterns — disjoint writes, atomic reductions,
// phased shared-memory trees — stay silent, that schedule permutation
// flags order-dependent floating-point reductions without perturbing
// canonical results, that the full GPU simulation is race-free and
// bit-deterministic end to end, and that its per-phase counted events stay
// pinned.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/foi.hpp"
#include "core/grid.hpp"
#include "core/params.hpp"
#include "gpusim/gpusim.hpp"
#include "simcov_gpu/gpu_sim.hpp"
#include "util/error.hpp"

namespace simcov::gpusim {
namespace {

/// Scoped override (or removal, when value == nullptr) of an environment
/// variable, restoring the previous state on destruction.  The CI
/// kernel-check job exports SIMCOV_KERNEL_CHECK=1 for the whole suite, so
/// tests that rely on a specific checker mode must pin the variable.
struct EnvVarOverride {
  EnvVarOverride(const char* var, const char* value) : name(var) {
    const char* prev_raw = std::getenv(var);  // NOLINT(concurrency-mt-unsafe)
    had_prev = prev_raw != nullptr;
    if (had_prev) prev = prev_raw;
    if (value != nullptr) {
      ::setenv(var, value, 1);  // NOLINT(concurrency-mt-unsafe)
    } else {
      ::unsetenv(var);  // NOLINT(concurrency-mt-unsafe)
    }
  }
  ~EnvVarOverride() {
    if (had_prev) {
      ::setenv(name, prev.c_str(), 1);  // NOLINT(concurrency-mt-unsafe)
    } else {
      ::unsetenv(name);  // NOLINT(concurrency-mt-unsafe)
    }
  }
  EnvVarOverride(const EnvVarOverride&) = delete;
  EnvVarOverride& operator=(const EnvVarOverride&) = delete;

  const char* name;
  std::string prev;
  bool had_prev = false;
};

DeviceOptions access_checked() {
  return DeviceOptions{.check_kernels = true, .permute_schedules = false,
                       .defer_check_report = false};
}
DeviceOptions permuted() {
  return DeviceOptions{.check_kernels = true, .permute_schedules = true,
                       .defer_check_report = false};
}

/// Runs `fn` and returns the KernelCheck diagnostic ("" if it ran clean).
template <typename F>
std::string launch_error(F&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// ---- enablement ----------------------------------------------------------

TEST(KernelCheck, OffByDefaultRacesRunSilently) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0);
  EXPECT_EQ(dev.checker(), nullptr);
  DeviceBuffer<int> buf(dev, 1, 0);
  // Every thread writes element 0 — a write-write race, invisible without
  // the checker because the sequential schedule executes it benignly.
  dev.parallel_for({1, 4, "k_seeded_ww"}, [&](auto& t) {
    t.global(buf).write(0, static_cast<int>(t.thread_idx()));
  });
  EXPECT_FALSE(dev.kernel_active());
}

TEST(KernelCheck, EnvVarEnablesAccessChecking) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", "1");
  Device dev(0);
  ASSERT_NE(dev.checker(), nullptr);
  EXPECT_TRUE(dev.checker()->access_checking());
  EXPECT_FALSE(dev.checker()->permute_schedules());
}

TEST(KernelCheck, EnvVarPermuteEnablesBothModes) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", "permute");
  Device dev(0);
  ASSERT_NE(dev.checker(), nullptr);
  EXPECT_TRUE(dev.checker()->access_checking());
  EXPECT_TRUE(dev.checker()->permute_schedules());
}

TEST(KernelCheck, EnvVarZeroIsOff) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", "0");
  Device dev(0);
  EXPECT_EQ(dev.checker(), nullptr);
}

// ---- seeded races: global memory -----------------------------------------

TEST(KernelCheck, WriteWriteRaceDetected) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 4, 0, "race_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_ww"}, [&](auto& t) {
      t.global(buf).write(0, static_cast<int>(t.thread_idx()));
    });
  });
  EXPECT_NE(err.find("write-write race"), std::string::npos) << err;
  EXPECT_NE(err.find("k_seeded_ww"), std::string::npos) << err;
  EXPECT_NE(err.find("race_target"), std::string::npos) << err;
  EXPECT_FALSE(dev.kernel_active());  // launch depth unwound despite throw
}

TEST(KernelCheck, DiagnosticsCarryKernelNameConfigAndFirstPair) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 4, 0, "race_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_ww"}, [&](auto& t) {
      t.global(buf).write(0, 1);
    });
  });
  EXPECT_NE(err.find("'k_seeded_ww' <<1x4>>"), std::string::npos) << err;
  EXPECT_NE(err.find("buffer 'race_target' element 0"), std::string::npos)
      << err;
  // First conflicting pair: thread 0's write vs thread 1's.
  EXPECT_NE(err.find("(block 0, thread 0, phase 0) vs "
                     "(block 0, thread 1, phase 0)"),
            std::string::npos)
      << err;
}

TEST(KernelCheck, ReadWriteRaceDetected) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 2, 0, "rw_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_rw"}, [&](auto& t) {
      auto g = t.global(buf);
      if (t.thread_idx() == 0) {
        g.write(0, 7);
      } else {
        g.read(0);
      }
    });
  });
  EXPECT_NE(err.find("read-write race"), std::string::npos) << err;
}

TEST(KernelCheck, AtomicPlainMixDetected) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 1, 0, "mix_target");
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 4, "k_seeded_mix"}, [&](auto& t) {
      auto g = t.global(buf);
      if (t.thread_idx() == 0) {
        g.write(0, 1);  // plain store racing the other threads' atomics
      } else {
        g.atomic_add(0, 1);
      }
    });
  });
  EXPECT_NE(err.find("atomic-plain mix"), std::string::npos) << err;
}

TEST(KernelCheck, CrossBlockWriteConflictDetected) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 1, 0, "xblock");
  // Blocks are never ordered within a launch, phases or not.
  const std::string err = launch_error([&] {
    dev.launch_blocks({2, 2, "k_xblock"}, [&](auto& blk) {
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid == 0) blk.global(buf).write(0, 1);
      });
    });
  });
  EXPECT_NE(err.find("write-write race"), std::string::npos) << err;
  EXPECT_NE(err.find("block 0"), std::string::npos) << err;
  EXPECT_NE(err.find("block 1"), std::string::npos) << err;
}

TEST(KernelCheck, AliasedViewsOfOneBufferDetected) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 2, 0, "aliased");
  // Two spans over the same storage: the shadow keys on the underlying
  // allocation, so the conflict is found across views.
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 2, "k_aliased"}, [&](auto& t) {
      auto a = t.global(buf);
      auto b = t.global(buf);
      if (t.thread_idx() == 0) {
        a.write(0, 1);
      } else {
        b.write(0, 2);
      }
    });
  });
  EXPECT_NE(err.find("write-write race"), std::string::npos) << err;
  EXPECT_NE(err.find("aliased"), std::string::npos) << err;
}

// ---- seeded races: shared memory -----------------------------------------

TEST(KernelCheck, SharedSamePhaseWriteIsPhaseViolation) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  // The exact pattern the tile sweep used to have: every thread of the
  // block raises a single shared flag in the same phase.
  const std::string err = launch_error([&] {
    dev.launch_blocks({1, 4, "k_shared_flag"}, [&](auto& blk) {
      auto found = blk.template shared<std::uint32_t>(1);
      blk.for_each_thread([&](std::uint32_t) { found[0] = 1; });
    });
  });
  EXPECT_NE(err.find("shared-memory phase violation"), std::string::npos)
      << err;
  EXPECT_NE(err.find("k_shared_flag"), std::string::npos) << err;
}

TEST(KernelCheck, SharedReadOfOtherThreadsSlotSamePhaseDetected) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  const std::string err = launch_error([&] {
    dev.launch_blocks({1, 4, "k_shared_norace_missing_sync"}, [&](auto& blk) {
      auto sh = blk.template shared<int>(4);
      blk.for_each_thread([&](std::uint32_t tid) {
        sh[tid] = static_cast<int>(tid);
        // Reading the neighbour's slot in the *same* phase only works
        // because threads run sequentially here — a missing __syncthreads.
        if (tid > 0) (void)static_cast<int>(sh[tid - 1]);
      });
    });
  });
  EXPECT_NE(err.find("shared-memory phase violation (read-write)"),
            std::string::npos)
      << err;
}

TEST(KernelCheck, SharedPhasedTreeReductionIsClean) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> out(dev, 1, 0, "tree_out");
  dev.launch_blocks({2, 4, "k_tree"}, [&](auto& blk) {
    auto sh = blk.template shared<int>(4);
    blk.for_each_thread(
        [&](std::uint32_t tid) { sh[tid] = static_cast<int>(tid) + 1; });
    for (std::uint32_t off = 2; off > 0; off >>= 1) {
      blk.for_each_thread([&](std::uint32_t tid) {
        if (tid < off) sh[tid] += sh[tid + off];
      });
    }
    blk.for_each_thread([&](std::uint32_t tid) {
      if (tid == 0) blk.global(out).atomic_add(0, sh[0]);
    });
  });
  std::vector<int> host(1);
  out.copy_to_host(host);
  EXPECT_EQ(host[0], 2 * (1 + 2 + 3 + 4));
  ASSERT_NE(dev.checker(), nullptr);
  EXPECT_TRUE(dev.checker()->clean());
  EXPECT_GT(dev.checker()->accesses_checked(), 0u);
}

// ---- clean patterns stay silent ------------------------------------------

TEST(KernelCheck, DisjointWritesClean) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<std::uint64_t> buf(dev, 64, 0, "disjoint");
  dev.parallel_for({4, 16, "k_disjoint"}, [&](auto& t) {
    t.global(buf).write(t.global_index(), t.global_index());
  });
  EXPECT_TRUE(dev.checker()->clean());
  EXPECT_EQ(dev.checker()->launches_checked(), 1u);
}

TEST(KernelCheck, AtomicReductionClean) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<std::uint64_t> sum(dev, 1, 0, "sum");
  dev.parallel_for({2, 32, "k_atomic_sum"}, [&](auto& t) {
    t.global(sum).atomic_add(0, t.global_index());
  });
  std::vector<std::uint64_t> host(1);
  sum.copy_to_host(host);
  EXPECT_EQ(host[0], 64u * 63u / 2u);
  EXPECT_TRUE(dev.checker()->clean());
}

TEST(KernelCheck, SameThreadReadModifyWriteClean) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 8, 1, "rmw");
  dev.parallel_for({1, 8, "k_rmw"}, [&](auto& t) {
    auto g = t.global(buf);
    const std::size_t i = t.thread_idx();
    for (int k = 0; k < 4; ++k) g.write(i, g.read(i) * 2);
  });
  EXPECT_TRUE(dev.checker()->clean());
}

TEST(KernelCheck, FreshLaunchForgetsPreviousAccesses) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, access_checked());
  DeviceBuffer<int> buf(dev, 1, 0, "sequential");
  // Same element written by different threads in *different launches*:
  // launches are synchronization points, so this must stay silent.
  dev.parallel_for({1, 2, "k_first"}, [&](auto& t) {
    if (t.thread_idx() == 0) t.global(buf).write(0, 1);
  });
  dev.parallel_for({1, 2, "k_second"}, [&](auto& t) {
    if (t.thread_idx() == 1) t.global(buf).write(0, 2);
  });
  EXPECT_TRUE(dev.checker()->clean());
  EXPECT_EQ(dev.checker()->launches_checked(), 2u);
}

// ---- schedule permutation ------------------------------------------------

TEST(KernelCheck, SeededPermutationIsDeterministicAndComplete) {
  const auto p1 = seeded_permutation(42, 17);
  const auto p2 = seeded_permutation(42, 17);
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, seeded_permutation(43, 17));
  std::vector<bool> seen(17, false);
  for (const std::uint64_t v : p1) {
    ASSERT_LT(v, 17u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(KernelCheck, PermutationFlagsOrderDependentFloatReduction) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, permuted());
  DeviceBuffer<double> sum(dev, 1, 0.0, "fp_sum");
  // (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1 in binary floating point: the
  // access checker rightly accepts the atomics, but the result depends on
  // thread order — exactly what the bit-for-bit replay diff catches.
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 3, "k_fp_reduce"}, [&](auto& t) {
      t.global(sum).atomic_add(0, 0.1 * (t.thread_idx() + 1));
    });
  });
  EXPECT_NE(err.find("schedule-dependent result"), std::string::npos) << err;
  EXPECT_NE(err.find("fp_sum"), std::string::npos) << err;
  EXPECT_NE(err.find("k_fp_reduce"), std::string::npos) << err;
}

TEST(KernelCheck, PermutationCleanForIntegerAtomicsAndCountsOnce) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, permuted());
  DeviceBuffer<std::uint64_t> sum(dev, 1, 0, "int_sum");
  dev.parallel_for({2, 8, "k_int_reduce"}, [&](auto& t) {
    t.global(sum).atomic_add(0, 1);
  });
  std::vector<std::uint64_t> host(1);
  sum.copy_to_host(host);
  EXPECT_EQ(host[0], 16u);
  // Replays restore DeviceStats: counters describe the canonical run only.
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
  EXPECT_EQ(dev.stats().threads_executed, 16u);
  EXPECT_EQ(dev.stats().atomic_ops, 16u);
  EXPECT_EQ(dev.checker()->launches_permuted(), 1u);
  EXPECT_TRUE(dev.checker()->clean());
}

TEST(KernelCheck, PermutationKeepsCanonicalResult) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  auto run = [](Device& dev) {
    DeviceBuffer<std::uint64_t> buf(dev, 32, 0, "squares");
    dev.parallel_for({2, 16, "k_squares"}, [&](auto& t) {
      t.global(buf).write(t.global_index(),
                          t.global_index() * t.global_index());
    });
    std::vector<std::uint64_t> host(32);
    buf.copy_to_host(host);
    return host;
  };
  Device plain(0);
  Device checked(1, permuted());
  EXPECT_EQ(run(plain), run(checked));
}

TEST(KernelCheck, ToleratedVarianceIsCountedNotFatal) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  Device dev(0, permuted());
  DeviceBuffer<double> sum(dev, 1, 0.0, "fp_sum");
  sum.tolerate_schedule_variance("test: intentionally order-tolerant");
  dev.parallel_for({1, 3, "k_fp_reduce"}, [&](auto& t) {
    t.global(sum).atomic_add(0, 0.1 * (t.thread_idx() + 1));
  });
  EXPECT_EQ(dev.checker()->violation_count(), 0u);
  EXPECT_GE(dev.checker()->tolerated_diffs(), 1u);
  // The exemption is scoped to that one launch: the same kernel without a
  // fresh annotation is flagged again.  (Reset the accumulator first so the
  // re-run reproduces the known order-dependent sums bit for bit.)
  sum.fill(0.0);
  const std::string err = launch_error([&] {
    dev.parallel_for({1, 3, "k_fp_reduce"}, [&](auto& t) {
      t.global(sum).atomic_add(0, 0.1 * (t.thread_idx() + 1));
    });
  });
  EXPECT_NE(err.find("schedule-dependent result"), std::string::npos) << err;
}

// ---- full simulation ------------------------------------------------------

SimParams checker_sim_params() {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 32;
  p.dim_y = 32;
  p.num_steps = 60;
  p.num_foi = 2;
  p.seed = 99;
  p.tcell_initial_delay = 15;
  p.tcell_generation_rate = 4.0;
  p.incubation_period = 8;
  p.tile_side = 8;
  p.tile_check_period = 4;
  return p;
}

TEST(KernelCheck, FullGpuSimCleanUnderCheckerAndUnperturbed) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  const SimParams p = checker_sim_params();
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions plain;
  plain.record_digests = true;
  const auto base = gpu::run_gpu_sim(p, foi, plain);

  gpu::GpuSimOptions checked = plain;
  checked.check_kernels = true;
  const auto r = gpu::run_gpu_sim(p, foi, checked);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_GT(r.check_accesses, 0u);
  EXPECT_EQ(r.digests, base.digests);  // observation does not perturb
  EXPECT_EQ(base.check_accesses, 0u);  // and off means off
}

TEST(KernelCheck, SmokeScenarioBitIdenticalUnderPermutedSchedules) {
  EnvVarOverride guard("SIMCOV_KERNEL_CHECK", nullptr);
  // The cli_gpu_smoke configuration: every launch of every step must
  // produce bit-identical buffers under reversed and shuffled schedules,
  // and the permuted run's digests must equal the plain run's.
  SimParams p;
  p.dim_x = 48;
  p.dim_y = 48;
  p.num_steps = 40;
  p.num_foi = 2;
  p.incubation_period = 10;
  p.tcell_initial_delay = 15;
  p.tcell_generation_rate = 4.0;
  const Grid grid(p.dim_x, p.dim_y, p.dim_z);
  const auto foi = foi_uniform_random(grid, p.num_foi, p.seed);

  gpu::GpuSimOptions plain;
  plain.record_digests = true;
  const auto base = gpu::run_gpu_sim(p, foi, plain);

  gpu::GpuSimOptions perm = plain;
  perm.check_kernels = true;
  perm.permute_schedules = true;
  const auto r = gpu::run_gpu_sim(p, foi, perm);
  EXPECT_EQ(r.check_violations, 0u);
  EXPECT_EQ(r.digests, base.digests);
  EXPECT_EQ(r.device_total.kernel_launches,
            base.device_total.kernel_launches);
}

// Tripwire: the per-phase counters of one small fixed GpuSim run, pinned.
// They are what the cost model prices, so host-side rewrites of the
// kernels (addressing, launch loops, row walks) must leave every value
// exactly as it is.  Per rank 32x28 voxels in 8-voxel tiles (ragged in y),
// with interior tiles that Combined skips and T cells that move and bind.
TEST(GpuRun, PerPhaseCountersOfAFixedRunArePinned) {
  SimParams p = SimParams::bench_fast();
  p.dim_x = 64;
  p.dim_y = 56;
  p.num_steps = 80;
  p.num_foi = 2;
  p.seed = 11;
  p.tile_side = 8;
  p.incubation_period = 8;
  p.expressing_period = 40;
  p.apoptosis_period = 12;
  p.tcell_initial_delay = 20;
  p.tcell_generation_rate = 6.0;
  p.virus_diffusion = 0.4;
  p.infectivity = 0.06;
  p.chem_production = 0.4;
  p.chem_diffusion = 0.8;
  const std::vector<VoxelId> foi = {9 * 64 + 10, 45 * 64 + 50};

  // Per phase (t_cells, epithelial, concentrations, halo, tile_sweep,
  // reduce_stats): launches, blocks, threads, read bytes, write bytes,
  // atomics, shared bytes, H2D bytes, D2H bytes.
  using Row = std::array<std::uint64_t, 9>;
  using Pinned = std::array<Row, perfmodel::kNumPhases>;
  const Pinned combined = {{
      {3200, 13680, 1710400, 7455029, 5828233, 1552, 0, 0, 0},
      {320, 2416, 309248, 3633816, 1333535, 0, 0, 0, 0},
      {5120, 5120, 655360, 12364800, 7028736, 0, 0, 153600, 153600},
      {17920, 17920, 2293760, 3340800, 2726400, 0, 0, 1363200, 1363200},
      {40, 640, 81920, 312792, 640, 0, 163840, 2420, 640},
      {320, 320, 368640, 2867200, 24320, 2880, 2949120, 0, 24320},
  }};
  const Pinned unoptimized = {{
      {3200, 14400, 1802560, 7921973, 6197897, 1552, 0, 0, 0},
      {320, 2560, 327680, 3886744, 1430815, 0, 0, 0, 0},
      {5120, 5120, 655360, 13240320, 7495680, 0, 0, 153600, 153600},
      {17920, 17920, 2293760, 3340800, 2726400, 0, 0, 1363200, 1363200},
      {0, 0, 0, 0, 0, 0, 0, 0, 0},
      {320, 2560, 327680, 2867200, 24320, 383047, 0, 0, 24320},
  }};
  for (const auto& [variant, want] :
       {std::pair{gpu::GpuVariant::combined(), combined},
        std::pair{gpu::GpuVariant::unoptimized(), unoptimized}}) {
    gpu::GpuSimOptions opt;
    opt.num_ranks = 4;
    opt.variant = variant;
    const gpu::GpuRunResult r = gpu::run_gpu_sim(p, foi, opt);
    for (int ph = 0; ph < perfmodel::kNumPhases; ++ph) {
      SCOPED_TRACE(variant.name() + " / " +
                   perfmodel::phase_name(static_cast<perfmodel::Phase>(ph)));
      const DeviceStats& d = r.device_by_phase[static_cast<std::size_t>(ph)];
      const Row got = {d.kernel_launches,    d.blocks_executed,
                       d.threads_executed,   d.global_read_bytes,
                       d.global_write_bytes, d.atomic_ops,
                       d.shared_bytes_allocated, d.h2d_bytes,
                       d.d2h_bytes};
      EXPECT_EQ(got, want[static_cast<std::size_t>(ph)]);
    }
  }
}

}  // namespace
}  // namespace simcov::gpusim
