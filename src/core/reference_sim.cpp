#include "core/reference_sim.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/error.hpp"

namespace simcov {

namespace {

struct SourceIntent {
  VoxelId source;
  std::uint32_t timer;  ///< the T cell's remaining tissue life
  rules::Intent intent;
};

}  // namespace

ReferenceSim::ReferenceSim(const SimParams& params, std::vector<VoxelId> foi,
                           std::vector<VoxelId> empty_voxels)
    : params_(params), grid_(params.dim_x, params.dim_y, params.dim_z),
      rng_(params.seed) {
  params_.validate();
  const std::size_t n = static_cast<std::size_t>(grid_.num_voxels());
  epi_state_.assign(n, EpiState::kHealthy);
  epi_timer_.assign(n, 0);
  tcell_.assign(n, 0);
  tcell_timer_.assign(n, 0);
  tcell_bind_.assign(n, 0);
  virus_.assign(n, 0.0f);
  chem_.assign(n, 0.0f);
  bid_move_.assign(n, 0);
  bid_bind_.assign(n, 0);
  occupancy_.assign(n, 0);
  field_tmp_.assign(n, 0.0f);

  for (VoxelId v : empty_voxels) {
    SIMCOV_REQUIRE(v < grid_.num_voxels(), "empty voxel id out of range");
    epi_state_[static_cast<std::size_t>(v)] = EpiState::kEmpty;
  }
  for (VoxelId v : foi) {
    SIMCOV_REQUIRE(v < grid_.num_voxels(), "FOI voxel id out of range");
    SIMCOV_REQUIRE(epi_state_[static_cast<std::size_t>(v)] != EpiState::kEmpty,
                   "FOI voxel is an airway (empty) voxel");
    virus_[static_cast<std::size_t>(v)] = params_.initial_virus;
  }
}

void ReferenceSim::run(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
}

void ReferenceSim::step() {
  StepStats stats;
  phase_tcells(stats);
  phase_epithelial();
  phase_concentrations();
  phase_reduce(stats);
  history_.push_back(stats);
  ++step_;
}

rules::NeighbourView ReferenceSim::neighbour_view(const Coord& c) const {
  rules::NeighbourView nb;
  std::array<Coord, 6> coords;
  nb.count = grid_.neighbours(c, coords);
  for (int i = 0; i < nb.count; ++i) {
    const VoxelId id = grid_.to_id(coords[static_cast<std::size_t>(i)]);
    nb.ids[static_cast<std::size_t>(i)] = id;
    nb.epi[static_cast<std::size_t>(i)] = epi_state_[static_cast<std::size_t>(id)];
  }
  return nb;
}

void ReferenceSim::phase_tcells(StepStats& stats) {
  const std::size_t n = static_cast<std::size_t>(grid_.num_voxels());
  const StepRng rng = rng_.at(step_);

  // --- Aging / unbinding.  Bound cells count down their binding and do not
  // age; free cells age and die at 0.  A cell whose binding just completed
  // becomes free but is not eligible to move until the next step.
  std::vector<SourceIntent> intents;
  std::fill(bid_move_.begin(), bid_move_.end(), 0);
  std::fill(bid_bind_.begin(), bid_bind_.end(), 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (!tcell_[v]) {
      occupancy_[v] = 0;
      continue;
    }
    bool eligible = false;
    if (tcell_bind_[v] > 0) {
      --tcell_bind_[v];
    } else {
      if (tcell_timer_[v] <= 1) {
        // Dies this step.
        tcell_[v] = 0;
        tcell_timer_[v] = 0;
      } else {
        --tcell_timer_[v];
        eligible = true;
      }
    }
    occupancy_[v] = tcell_[v];
    if (!eligible) continue;

    // --- Intent.
    const Coord c = grid_.to_coord(static_cast<VoxelId>(v));
    const rules::Intent intent = rules::tcell_intent(
        rng, static_cast<VoxelId>(v), epi_state_[v], neighbour_view(c));
    if (intent.kind == rules::IntentKind::kNone) continue;
    intents.push_back({static_cast<VoxelId>(v), tcell_timer_[v], intent});
    auto& field = (intent.kind == rules::IntentKind::kMove) ? bid_move_
                                                            : bid_bind_;
    field[static_cast<std::size_t>(intent.target)] =
        std::max(field[static_cast<std::size_t>(intent.target)], intent.bid);
  }

  // --- Resolution + application.
  for (const auto& si : intents) {
    const std::size_t tgt = static_cast<std::size_t>(si.intent.target);
    const std::size_t src = static_cast<std::size_t>(si.source);
    if (si.intent.kind == rules::IntentKind::kMove) {
      if (bid_move_[tgt] != si.intent.bid) continue;  // lost the tiebreak
      if (occupancy_[tgt]) continue;                  // ran into another T cell
      tcell_[src] = 0;
      tcell_timer_[src] = 0;
      tcell_[tgt] = 1;
      tcell_timer_[tgt] = si.timer;
      tcell_bind_[tgt] = 0;
    } else {
      if (bid_bind_[tgt] != si.intent.bid) continue;
      if (epi_state_[tgt] != EpiState::kExpressing) continue;
      epi_state_[tgt] = EpiState::kApoptotic;
      epi_timer_[tgt] = rules::sample_period(rng, si.intent.target,
                                             RngStream::kApoptosisPeriod,
                                             params_.apoptosis_period);
      tcell_bind_[src] =
          static_cast<std::uint32_t>(params_.tcell_binding_period);
    }
  }

  // --- Extravasation.
  const std::uint64_t attempts = rules::num_extravasation_attempts(
      pool_, params_.max_extravasate_per_step);
  std::uint64_t successes = 0;
  for (std::uint64_t i = 0; i < attempts; ++i) {
    const VoxelId u = rules::attempt_voxel(rng, i, grid_.num_voxels());
    const std::size_t ui = static_cast<std::size_t>(u);
    if (!rules::attempt_accepted(rng, i, chem_[ui])) continue;
    if (epi_state_[ui] == EpiState::kEmpty) continue;
    if (tcell_[ui]) continue;
    tcell_[ui] = 1;
    tcell_timer_[ui] = static_cast<std::uint32_t>(params_.tcell_tissue_period);
    tcell_bind_[ui] = 0;
    ++successes;
  }
  stats.extravasated = successes;
}

void ReferenceSim::phase_epithelial() {
  const std::size_t n = static_cast<std::size_t>(grid_.num_voxels());
  const StepRng rng = rng_.at(step_);
  for (std::size_t v = 0; v < n; ++v) {
    const EpiState s = epi_state_[v];
    if (s == EpiState::kEmpty || s == EpiState::kDead) continue;
    const rules::EpiUpdate u = rules::update_epithelial(
        rng, static_cast<VoxelId>(v), s, epi_timer_[v], virus_[v], params_);
    epi_state_[v] = u.state;
    epi_timer_[v] = u.timer;
  }
}

void ReferenceSim::phase_concentrations() {
  const std::size_t n = static_cast<std::size_t>(grid_.num_voxels());

  auto run_field = [&](std::vector<float>& field, auto produces_fn,
                       double production, double decay, double diffusion,
                       double floor_eps) {
    // Pass 1: production + decay into the temp buffer.
    for (std::size_t v = 0; v < n; ++v) {
      field_tmp_[v] = rules::produce_decay(field[v], produces_fn(epi_state_[v]),
                                           production, decay);
    }
    // Pass 2: diffusion reading the temp buffer.
    for (std::size_t v = 0; v < n; ++v) {
      const Coord c = grid_.to_coord(static_cast<VoxelId>(v));
      std::array<Coord, 6> coords;
      const int cnt = grid_.neighbours(c, coords);
      double sum = 0.0;
      for (int i = 0; i < cnt; ++i) {
        sum += static_cast<double>(
            field_tmp_[static_cast<std::size_t>(grid_.to_id(coords[static_cast<std::size_t>(i)]))]);
      }
      field[v] = rules::diffuse(field_tmp_[v], sum, cnt, diffusion, floor_eps);
    }
  };

  run_field(virus_, [](EpiState s) { return rules::produces_virus(s); },
            params_.virus_production, params_.virus_decay,
            params_.virus_diffusion, params_.min_virus);
  run_field(chem_, [](EpiState s) { return rules::produces_chem(s); },
            params_.chem_production, params_.chem_decay,
            params_.chem_diffusion, params_.min_chem);
}

void ReferenceSim::phase_reduce(StepStats& stats) {
  const std::size_t n = static_cast<std::size_t>(grid_.num_voxels());
  for (std::size_t v = 0; v < n; ++v) {
    stats.virus_total += static_cast<double>(virus_[v]);
    stats.chem_total += static_cast<double>(chem_[v]);
    ++stats.epi_counts[static_cast<std::size_t>(epi_state_[v])];
    stats.tcells_tissue += tcell_[v];
  }
  pool_ = rules::pool_after_step(pool_, step_, params_, stats.extravasated);
  stats.tcells_vascular = pool_;
}

std::uint64_t ReferenceSim::state_digest() const {
  const std::size_t n = static_cast<std::size_t>(grid_.num_voxels());
  std::uint64_t d = 0;
  for (std::size_t v = 0; v < n; ++v) {
    d ^= rules::voxel_digest(static_cast<VoxelId>(v), epi_state_[v],
                             epi_timer_[v], tcell_[v], tcell_timer_[v],
                             tcell_bind_[v], virus_[v], chem_[v]);
  }
  return d;
}

VoxelState ReferenceSim::voxel(VoxelId v) const {
  SIMCOV_REQUIRE(v < grid_.num_voxels(), "voxel id out of range");
  const std::size_t i = static_cast<std::size_t>(v);
  return {epi_state_[i], epi_timer_[i],  tcell_[i],
          tcell_timer_[i], tcell_bind_[i], virus_[i], chem_[i]};
}

namespace {

constexpr char kMagic[4] = {'S', 'C', 'V', '1'};

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  SIMCOV_REQUIRE(in.good(), "checkpoint truncated");
  return v;
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::istream& in, std::size_t expected_size) {
  const auto n = read_pod<std::uint64_t>(in);
  SIMCOV_REQUIRE(expected_size == 0 || n == expected_size,
                 "checkpoint array size mismatch");
  std::vector<T> v(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  SIMCOV_REQUIRE(in.good(), "checkpoint truncated");
  return v;
}

}  // namespace

void ReferenceSim::save(std::ostream& out) const {
  out.write(kMagic, 4);
  write_pod<std::uint32_t>(out, sizeof(SimParams));
  write_pod(out, params_);
  write_pod(out, step_);
  write_pod(out, pool_);
  write_vec(out, epi_state_);
  write_vec(out, epi_timer_);
  write_vec(out, tcell_);
  write_vec(out, tcell_timer_);
  write_vec(out, tcell_bind_);
  write_vec(out, virus_);
  write_vec(out, chem_);
  write_vec(out, history_);
  SIMCOV_REQUIRE(out.good(), "checkpoint write failed");
}

ReferenceSim::ReferenceSim(LoadTag, std::istream& in)
    : params_([&] {
        char magic[4];
        in.read(magic, 4);
        SIMCOV_REQUIRE(in.good() && std::equal(magic, magic + 4, kMagic),
                       "not a SIMCoV checkpoint");
        SIMCOV_REQUIRE(read_pod<std::uint32_t>(in) == sizeof(SimParams),
                       "checkpoint written by an incompatible build");
        return read_pod<SimParams>(in);
      }()),
      grid_(params_.dim_x, params_.dim_y, params_.dim_z), rng_(params_.seed) {
  params_.validate();
  step_ = read_pod<std::uint64_t>(in);
  pool_ = read_pod<double>(in);
  const std::size_t n = static_cast<std::size_t>(grid_.num_voxels());
  epi_state_ = read_vec<EpiState>(in, n);
  epi_timer_ = read_vec<std::uint32_t>(in, n);
  tcell_ = read_vec<std::uint8_t>(in, n);
  tcell_timer_ = read_vec<std::uint32_t>(in, n);
  tcell_bind_ = read_vec<std::uint32_t>(in, n);
  virus_ = read_vec<float>(in, n);
  chem_ = read_vec<float>(in, n);
  history_ = read_vec<StepStats>(in, 0);
  bid_move_.assign(n, 0);
  bid_bind_.assign(n, 0);
  occupancy_.assign(n, 0);
  field_tmp_.assign(n, 0.0f);
}

ReferenceSim ReferenceSim::load(std::istream& in) {
  return ReferenceSim(LoadTag{}, in);
}

std::uint64_t ReferenceSim::tissue_tcell_count() const {
  std::uint64_t c = 0;
  for (auto t : tcell_) c += t;
  return c;
}

}  // namespace simcov
