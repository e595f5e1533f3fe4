#pragma once
// Pricing counted events into modeled seconds, and folding per-rank costs
// into a bulk-synchronous run time.
//
// Both simulation backends are bulk-synchronous: a timestep is a sequence
// of phases, each ending at a device sync and/or PGAS barrier.  The modeled
// wall time of a run is therefore
//
//     sum over steps  sum over phases  max over ranks  price(sample)
//
// The inner max is what exposes load imbalance: a rank whose sub-domain
// contains all the infection pays for it while idle ranks wait — the effect
// that makes FOI count (Fig. 8) a performance variable at all.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "pgas/comm_stats.hpp"
#include "perfmodel/machine.hpp"

namespace simcov::perfmodel {

/// Phases of one simulation timestep.  Fig. 4 groups these into two
/// categories: everything except kReduceStats is "Update Agents".
enum class Phase : int {
  kTCells = 0,      ///< T cell move/bind kernels or active-list pass
  kEpithelial,      ///< epithelial FSM updates
  kConcentrations,  ///< virus + inflammatory-signal diffusion
  kHalo,            ///< boundary exchange (GPU) / RPC tiebreaks (CPU)
  kTileSweep,       ///< active-tile check kernel (GPU w/ tiling only)
  kReduceStats,     ///< per-step statistics reduction
  kPhaseCount
};

constexpr int kNumPhases = static_cast<int>(Phase::kPhaseCount);

const char* phase_name(Phase p);

/// True for phases the paper's Fig. 4 counts as "Update Agents".
constexpr bool is_update_phase(Phase p) { return p != Phase::kReduceStats; }

/// Counter deltas for one (rank, step, phase).
struct WorkSample {
  gpusim::DeviceStats dev;    ///< zeroes for the CPU backend
  pgas::CommStats comm;
  std::uint64_t cpu_voxel_updates = 0;  ///< CPU backend functional work
  std::uint64_t cpu_list_ops = 0;       ///< CPU active-list maintenance
  /// Global-memory efficiency penalty (>= 1): the GPU backend sets this
  /// above 1 when the memory-tiling layout optimization is disabled,
  /// modelling the poorer locality of the untiled layout (§3.2/§3.4).
  double mem_penalty = 1.0;
};

enum class Backend { kCpu, kGpu };

/// Converts WorkSamples to seconds under a MachineSpec.
///
/// `area_scale`: the evaluation's functional runs use grids scaled down
/// from the paper's (e.g. 512^2 instead of 10,000^2).  Per-voxel and
/// per-agent event counts are extrapolated linearly by this factor, and
/// boundary-proportional traffic (halo bytes) by its square root, so the
/// modeled seconds correspond to a paper-scale run while load imbalance and
/// active fractions come from the real (scaled) simulation.  1.0 = no
/// extrapolation.
class CostModel {
 public:
  CostModel(const MachineSpec& spec, Backend backend, int world_size,
            double area_scale = 1.0);

  double price(const WorkSample& s) const;
  Backend backend() const { return backend_; }

 private:
  MachineSpec spec_;
  Backend backend_;
  double log2_world_;  ///< log2(P), for barrier/collective scaling
  double area_scale_;
  double boundary_scale_;  ///< sqrt(area_scale)
};

/// Per-rank accumulation of priced phase costs, step by step.  Each sample
/// is priced twice: at its own mem_penalty, and at mem_penalty = 1 — the
/// tiled layout every GPU variant really stores, so a cost at that layout
/// compares variants on the counted events alone (the untiled penalty is
/// a modeled locality effect no measured time contains).
/// Memory: steps * 2 * kNumPhases doubles per rank.
class RankCostLog {
 public:
  explicit RankCostLog(const CostModel& model) : model_(&model) {}

  /// Records the sample for `phase` of the current step (at most one sample
  /// per phase per step; phases may be skipped).
  void add(Phase phase, const WorkSample& sample);

  /// Closes the current step.
  void end_step();

  std::size_t num_steps() const { return steps_.size(); }
  /// Priced seconds for (step, phase).
  double cost(std::size_t step, Phase phase) const;
  /// Priced seconds for (step, phase) at mem_penalty = 1.
  double cost_tiled_layout(std::size_t step, Phase phase) const;

 private:
  struct StepCost {
    std::array<double, kNumPhases> priced{};
    std::array<double, kNumPhases> tiled_layout{};
  };

  const CostModel* model_;
  StepCost current_{};
  std::vector<StepCost> steps_;
};

/// Modeled run cost after the bulk-synchronous fold over ranks.
struct RunCost {
  double total_s = 0.0;
  std::array<double, kNumPhases> by_phase{};  ///< max-folded, summed over steps
  /// Folded like by_phase, from every sample priced at mem_penalty = 1.
  /// Per-phase ratios between variants taken from this array compare
  /// counted events only, so they can scale a measured time.
  std::array<double, kNumPhases> by_phase_tiled_layout{};

  double update_agents_s() const;   ///< Fig. 4 "Update Agents" category
  double reduce_stats_s() const;    ///< Fig. 4 "Reduce Statistics" category
};

/// Folds per-rank logs: for every (step, phase), takes the max across ranks
/// (ranks wait at the phase-ending barrier), then sums.  by_phase and
/// by_phase_tiled_layout are each folded on their own.
/// All logs must have the same step count.
RunCost fold(std::span<const RankCostLog> logs);
RunCost fold(std::span<const RankCostLog* const> logs);

}  // namespace simcov::perfmodel
