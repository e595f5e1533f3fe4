#include "perfmodel/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace simcov::perfmodel {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kTCells: return "t_cells";
    case Phase::kEpithelial: return "epithelial";
    case Phase::kConcentrations: return "concentrations";
    case Phase::kHalo: return "halo";
    case Phase::kTileSweep: return "tile_sweep";
    case Phase::kReduceStats: return "reduce_stats";
    case Phase::kPhaseCount: break;
  }
  return "?";
}

CostModel::CostModel(const MachineSpec& spec, Backend backend, int world_size,
                     double area_scale)
    : spec_(spec), backend_(backend), area_scale_(area_scale),
      boundary_scale_(std::sqrt(area_scale)) {
  SIMCOV_REQUIRE(world_size >= 1, "world size must be positive");
  SIMCOV_REQUIRE(area_scale >= 1.0, "area_scale must be >= 1");
  log2_world_ = std::log2(static_cast<double>(world_size) + 1.0);
}

double CostModel::price(const WorkSample& s) const {
  // Per-voxel / per-agent events extrapolate with the area; halo strips
  // with the boundary (sqrt of area); latencies and launches do not scale.
  const double A = area_scale_;
  const double B = boundary_scale_;
  double t = 0.0;
  if (backend_ == Backend::kGpu) {
    const GpuSpec& g = spec_.gpu;
    const auto& d = s.dev;
    t += static_cast<double>(d.kernel_launches) * g.kernel_launch_s;
    t += static_cast<double>(d.threads_executed) * g.thread_s * A;
    t += static_cast<double>(d.global_read_bytes + d.global_write_bytes) *
         g.global_byte_s * A * s.mem_penalty;
    t += static_cast<double>(d.atomic_ops) * g.atomic_s * A * s.mem_penalty;
    t += static_cast<double>(d.h2d_bytes + d.d2h_bytes) * g.pcie_byte_s * B;
    t += static_cast<double>(s.comm.puts) * g.link_latency_s;
    t += static_cast<double>(s.comm.put_bytes) * g.link_byte_s * B;
    t += static_cast<double>(s.comm.reductions) * g.allreduce_latency_s *
         log2_world_;
    // Broadcasts: tree-structured like the reductions (log2(P) latency),
    // payload moving over the same links as halo puts.
    t += static_cast<double>(s.comm.broadcasts) * g.allreduce_latency_s *
         log2_world_;
    t += static_cast<double>(s.comm.broadcast_bytes) * g.link_byte_s * B;
  } else {
    const CpuSpec& c = spec_.cpu;
    t += static_cast<double>(s.cpu_voxel_updates) * c.voxel_update_s * A;
    t += static_cast<double>(s.cpu_list_ops) * c.list_op_s * A;
    t += static_cast<double>(s.comm.rpcs_sent) * c.rpc_s * B;
    t += static_cast<double>(s.comm.rpc_bytes) * c.rpc_byte_s * B;
    t += static_cast<double>(s.comm.puts) * c.copy_latency_s;
    t += static_cast<double>(s.comm.put_bytes) * c.copy_byte_s * B;
    t += static_cast<double>(s.comm.barriers) * c.barrier_base_s * log2_world_;
    t += static_cast<double>(s.comm.reductions) * c.allreduce_base_s *
         log2_world_;
    t += static_cast<double>(s.comm.broadcasts) * c.allreduce_base_s *
         log2_world_;
    t += static_cast<double>(s.comm.broadcast_bytes) * c.copy_byte_s * B;
  }
  return t;
}

void RankCostLog::add(Phase phase, const WorkSample& sample) {
  const int p = static_cast<int>(phase);
  SIMCOV_REQUIRE(p >= 0 && p < kNumPhases, "bad phase");
  const auto i = static_cast<std::size_t>(p);
  const double priced = model_->price(sample);
  current_.priced[i] += priced;
  if (sample.mem_penalty == 1.0) {
    current_.tiled_layout[i] += priced;
  } else {
    WorkSample tiled = sample;
    tiled.mem_penalty = 1.0;
    current_.tiled_layout[i] += model_->price(tiled);
  }
}

void RankCostLog::end_step() {
  steps_.push_back(current_);
  current_ = StepCost{};
}

double RankCostLog::cost(std::size_t step, Phase phase) const {
  SIMCOV_REQUIRE(step < steps_.size(), "step out of range");
  return steps_[step].priced[static_cast<std::size_t>(static_cast<int>(phase))];
}

double RankCostLog::cost_tiled_layout(std::size_t step, Phase phase) const {
  SIMCOV_REQUIRE(step < steps_.size(), "step out of range");
  return steps_[step]
      .tiled_layout[static_cast<std::size_t>(static_cast<int>(phase))];
}

double RunCost::update_agents_s() const {
  double t = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    if (is_update_phase(static_cast<Phase>(p)))
      t += by_phase[static_cast<std::size_t>(p)];
  }
  return t;
}

double RunCost::reduce_stats_s() const {
  return by_phase[static_cast<std::size_t>(
      static_cast<int>(Phase::kReduceStats))];
}

namespace {

template <typename GetLog>
RunCost fold_impl(std::size_t n, GetLog&& get) {
  SIMCOV_REQUIRE(n > 0, "fold needs at least one rank log");
  const std::size_t steps = get(0).num_steps();
  for (std::size_t r = 1; r < n; ++r) {
    SIMCOV_REQUIRE(get(r).num_steps() == steps,
                   "rank logs have differing step counts");
  }
  RunCost out;
  for (std::size_t s = 0; s < steps; ++s) {
    for (int p = 0; p < kNumPhases; ++p) {
      const auto phase = static_cast<Phase>(p);
      double mx = 0.0;
      double mx_tiled = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        mx = std::max(mx, get(r).cost(s, phase));
        mx_tiled = std::max(mx_tiled, get(r).cost_tiled_layout(s, phase));
      }
      out.by_phase[static_cast<std::size_t>(p)] += mx;
      out.by_phase_tiled_layout[static_cast<std::size_t>(p)] += mx_tiled;
      out.total_s += mx;
    }
  }
  return out;
}

}  // namespace

RunCost fold(std::span<const RankCostLog> logs) {
  return fold_impl(logs.size(),
                   [&](std::size_t r) -> const RankCostLog& { return logs[r]; });
}

RunCost fold(std::span<const RankCostLog* const> logs) {
  return fold_impl(logs.size(), [&](std::size_t r) -> const RankCostLog& {
    return *logs[r];
  });
}

}  // namespace simcov::perfmodel
