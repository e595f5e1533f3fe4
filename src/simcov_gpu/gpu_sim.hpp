#pragma once
// SIMCoV-GPU: the multinode, multi-GPU implementation (paper §3).
//
// One PGAS rank drives one virtual GPU (the paper runs one UPC++ process
// per physical GPU).  Each device holds its sub-domain in a tiled layout
// with a ghost halo; a timestep runs the kernel sequence of Fig. 2 — choose
// directions & bids, exchange boundary bids/intents, set flips, move agents
// — followed by epithelial and diffusion kernels, a periodic active-tile
// sweep (§3.2), and the per-step statistics reduction (§3.3, atomic or
// shared-memory tree variant).
//
// The four optimization variants of §3.4 (Unoptimized / Fast Reduction /
// Memory Tiling / Combined) are selected by GpuVariant; all four compute
// the identical simulation (bit-equal to the serial reference).

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/decomposition.hpp"
#include "core/params.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "gpusim/device.hpp"
#include "obs/critpath.hpp"
#include "obs/memscope.hpp"
#include "obs/profile.hpp"
#include "pgas/comm_stats.hpp"
#include "perfmodel/cost_model.hpp"
#include "perfmodel/machine.hpp"

namespace simcov::gpu {

/// Optimization toggles (§3.4).
struct GpuVariant {
  bool memory_tiling = true;   ///< §3.2: skip inactive tiles + tiled locality
  bool fast_reduction = true;  ///< §3.3: tree reduction instead of atomics

  static GpuVariant unoptimized() { return {false, false}; }
  static GpuVariant fast_reduction_only() { return {false, true}; }
  static GpuVariant memory_tiling_only() { return {true, false}; }
  static GpuVariant combined() { return {true, true}; }

  std::string name() const {
    if (memory_tiling && fast_reduction) return "Combined";
    if (memory_tiling) return "Memory Tiling";
    if (fast_reduction) return "Fast Reduction";
    return "Unoptimized";
  }
};

struct GpuSimOptions {
  int num_ranks = 4;  ///< one virtual GPU per rank
  /// Sub-domain shape (paper Fig. 1B: block vs linear decomposition trades
  /// off boundary length, i.e. halo traffic).
  Decomposition::Kind decomp = Decomposition::Kind::kBlock2D;
  GpuVariant variant = GpuVariant::combined();
  bool record_digests = false;
  perfmodel::MachineSpec machine = perfmodel::MachineSpec::perlmutter_like();
  /// Modeled-time extrapolation to paper-scale grids (see CostModel).
  double area_scale = 1.0;
  /// KernelCheck (gpusim/check.hpp): shadow access-set race detection on
  /// every kernel launch.  Also enabled by SIMCOV_KERNEL_CHECK=1.
  bool check_kernels = false;
  /// KernelCheck schedule permutation: re-execute each launch under
  /// reversed and seeded-shuffled thread orders and require bit-identical
  /// results.  Also enabled by SIMCOV_KERNEL_CHECK=permute.
  bool permute_schedules = false;
  /// KernelProf (obs/profile.hpp): per-launch wall time, per-buffer byte
  /// attribution, and per-kernel modeled seconds, exported in
  /// GpuRunResult::kernel_profile.  Also enabled by SIMCOV_PROFILE=1.
  bool profile = false;
  /// MemScope (obs/memscope.hpp): named per-buffer allocation registry,
  /// PGAS channel/queue accounting, RSS sampling at phase boundaries, and
  /// the memory drift rows in GpuRunResult.  Also enabled by
  /// SIMCOV_MEMSCOPE=1.  Observes allocation events only, so digests are
  /// bit-identical with it on or off.
  bool memscope = false;
  /// CritPath (obs/critpath.hpp): per-step gather of every rank's phase
  /// deltas to determine the binding rank/phase, accumulated into
  /// GpuRunResult::critpath.  Also enabled by SIMCOV_CRITPATH=1.  The
  /// gather is observability-only (no CommStats, no checker, no sim state),
  /// so digests are bit-identical with it on or off.
  bool critpath = false;
};

struct GpuRunResult {
  TimeSeries history;
  std::vector<std::uint64_t> digests;
  perfmodel::RunCost cost;
  gpusim::DeviceStats device_total;   ///< summed over devices
  /// Device counter flows per perfmodel::Phase (indexed by the enum),
  /// summed over steps and devices: the counted events the cost model
  /// prices.  peak_allocated_bytes stays 0 here (a level, not a flow).
  std::array<gpusim::DeviceStats, perfmodel::kNumPhases> device_by_phase{};
  std::uint64_t total_put_bytes = 0;
  std::uint64_t total_kernel_launches = 0;
  /// Full per-rank communication counters (including the per-destination
  /// comm matrix in CommStats::peers), indexed by rank id.
  std::vector<pgas::CommStats> comm_by_rank;
  /// KernelCheck totals over all ranks (zero when checking is off).
  std::uint64_t check_accesses = 0;
  std::uint64_t check_violations = 0;
  /// KernelProf per-(phase,kernel) aggregates summed over ranks (empty when
  /// profiling is off).  Wall ns are summed rank-time, like the PhaseClock
  /// counters the drift rows are built from.
  std::vector<obs::KernelStats> kernel_profile;
  /// Total GlobalSpan binds routed through profiler slots, summed over
  /// ranks (zero when profiling is off) — the site count for the
  /// profiler-off overhead gate in bench/obs_overhead.
  std::uint64_t prof_binds = 0;
  /// MemScope per-buffer memory report merged over all ranks (empty when
  /// memory accounting is off).  Per-rank peaks *sum*: every rank's buffers
  /// are simultaneously live, so the sum is the process footprint.
  obs::MemReport memory;
  /// perfmodel::gpu_rank_memory prediction summed over ranks, keyed by the
  /// same categories as memory.categories() — the modeled side of the
  /// memory drift rows.  Empty when memory accounting is off.
  std::map<std::string, double> mem_modeled_by_category;
  /// CritPath accumulator (rank 0's copy; the analysis is deterministic and
  /// identical on every rank).  steps() == 0 when critpath is off.
  obs::CritPathAccum critpath;
  /// Host wall time of the step loop alone (post-init barrier to post-loop
  /// barrier), seconds.  The reconciliation target for the critical path —
  /// unlike the harness's measured_wall_s it excludes construction,
  /// initialize() and teardown.
  double step_loop_wall_s = 0.0;
  /// Step-loop host work outside the phase spans (critpath gather and
  /// analysis, metric emission, bookkeeping), min-folded over ranks so the
  /// gather's barrier wait is not charged, seconds.  The reconciliation
  /// identity is critical path + tail ~= step_loop_wall_s.
  double step_tail_s = 0.0;
};

/// Runs the full simulation SPMD with one virtual GPU per rank.
GpuRunResult run_gpu_sim(const SimParams& params,
                         const std::vector<VoxelId>& foi,
                         const GpuSimOptions& options,
                         const std::vector<VoxelId>& empty_voxels = {});

}  // namespace simcov::gpu
