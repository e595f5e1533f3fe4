// Figure 4 (§3.4): optimization breakdown of SIMCoV-GPU.
//
// Four prototypes — Unoptimized, Fast Reduction only, Memory Tiling only,
// Combined — run a dense-activity simulation (the paper uses 1024 FOI on 4
// V100s); runtime is split into the paper's two categories, "Update Agents"
// and "Reduce Statistics".  Expected shape: reductions dominate the
// unoptimized version; each optimization helps its own category; memory
// tiling also improves the reduction (locality); the combined version wins
// and the gains compose roughly independently.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace simcov;
  bench::Reporter rep(
      "fig4_ablation",
      "Figure 4: SIMCoV-GPU optimization breakdown (update vs reduce)",
      "4 V100 (ASU Agave), dense activity (1024 FOI)",
      "4 virtual GPUs, 256^2 voxels, 16 FOI (paper's multi-focal density at 1/39 linear scale), 300 steps");

  harness::RunSpec spec;
  spec.params = bench::bench_params(256, 256, 300, 16);
  spec.area_scale = bench::kGpuAreaScale;

  // The measured what-if checks below compare critical paths of separate
  // wall-clock runs, so each variant runs kReps times and they gate on
  // medians of per-pass ratios.  Pass 0 is the recorded run (report
  // sections, reconciliation); passes 1.. repeat it with the same
  // collectors on, unrecorded.
  constexpr int kReps = 5;
  struct CritSample {
    double critical_s = 0.0;
    std::array<double, perfmodel::kNumPhases> phase_s{};
  };
  struct Row {
    gpu::GpuVariant variant;
    harness::BackendResult result;
    std::vector<CritSample> reps;
  };
  const auto crit_sample = [](const harness::BackendResult& r) {
    CritSample c;
    c.critical_s = r.critpath.critical_ns() / 1e9;
    for (int p = 0; p < perfmodel::kNumPhases; ++p) {
      c.phase_s[static_cast<std::size_t>(p)] =
          r.critpath.crit_phase_ns(p) / 1e9;
    }
    return c;
  };
  std::vector<Row> rows;
  for (const auto& v :
       {gpu::GpuVariant::unoptimized(), gpu::GpuVariant::fast_reduction_only(),
        gpu::GpuVariant::memory_tiling_only(), gpu::GpuVariant::combined()}) {
    rows.push_back({v, rep.run_gpu(v.name(), spec, 4, v), {}});
    rows.back().reps.push_back(crit_sample(rows.back().result));
    std::fprintf(stderr, "  ran %s\n", v.name().c_str());
  }
  harness::RunSpec rep_spec = spec;
  rep_spec.profile = true;  // the collectors Reporter::run_gpu turns on
  rep_spec.memscope = true;
  rep_spec.critpath = true;
  for (int pass = 1; pass < kReps; ++pass) {
    for (Row& r : rows) {
      r.reps.push_back(crit_sample(harness::run_gpu(rep_spec, 4, r.variant)));
    }
    std::fprintf(stderr, "  repeat pass %d of %d\n", pass + 1, kReps);
  }

  TextTable t({"SIMCoV-GPU Version", "Update Agents (s)",
               "Reduce Statistics (s)", "Total (s)"});
  for (const auto& r : rows) {
    t.add_row({r.variant.name(), fmt(r.result.cost.update_agents_s()),
               fmt(r.result.cost.reduce_stats_s()),
               fmt(r.result.modeled_seconds)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const auto& unopt = rows[0].result;
  const auto& fastred = rows[1].result;
  const auto& tiling = rows[2].result;
  const auto& combined = rows[3].result;
  rep.shape_check(
      "reductions dominate the unoptimized version",
      unopt.cost.reduce_stats_s() > unopt.cost.update_agents_s());
  rep.shape_check(
      "fast reduction slashes reduce time vs unoptimized",
      fastred.cost.reduce_stats_s() < 0.25 * unopt.cost.reduce_stats_s());
  rep.shape_check(
      "memory tiling reduces agent-update time",
      tiling.cost.update_agents_s() < unopt.cost.update_agents_s());
  rep.shape_check(
      "memory tiling also improves the reduction (locality)",
      tiling.cost.reduce_stats_s() < unopt.cost.reduce_stats_s());
  rep.shape_check(
      "combined is fastest overall",
      combined.modeled_seconds < fastred.modeled_seconds &&
          combined.modeled_seconds < tiling.modeled_seconds);
  // "the optimizations combine very effectively ... mostly independent
  // effects": combined inherits tiling's update time and fast reduction's
  // reduce time simultaneously.
  rep.shape_check(
      "effects are independent: combined update ~= tiling update",
      combined.cost.update_agents_s() < 1.2 * tiling.cost.update_agents_s());
  rep.shape_check(
      "effects are independent: combined reduce ~= fast-red reduce",
      combined.cost.reduce_stats_s() < 1.2 * fastred.cost.reduce_stats_s());

  // ---- CritPath reconciliation & what-if validation ----------------------
  // rep.run_gpu forces critpath on, so every variant carries a per-step
  // binding-rank accumulator.  Two properties are gated here (this bench
  // runs 300 steps, so the step loop dominates the measured wall and the
  // strict checks are meaningful — check_bench.py only enforces the loose
  // one-sided bound):
  //
  //  1. Reconciliation: the critical path (sum over steps of the binding
  //     rank's contiguous phase total) plus the observability tail (step
  //     host work outside the phase spans) must reconcile with the
  //     backend's step-loop wall within 5% — together they tile the loop,
  //     so the residual is barrier sync and clock granularity.
  //  2. What-if agreement: projecting one variant's critical path onto
  //     another by scaling each phase with the cost model's per-phase
  //     ratio at equal memory penalty (the same Amdahl-over-the-critical-
  //     path arithmetic obs::build_critpath_report uses) must agree with
  //     the *measured* critical path of the other variant.
  const auto critical_s = [](const harness::BackendResult& r) {
    return r.critpath.critical_ns() / 1e9;
  };
  for (const auto& r : rows) {
    const double crit = critical_s(r.result);
    const double tail = r.result.step_tail_s;
    const double wall = r.result.step_loop_wall_s;
    rep.metric("critical_s " + r.variant.name(), crit);
    rep.metric("step_tail_s " + r.variant.name(), tail);
    rep.metric("step_loop_wall_s " + r.variant.name(), wall);
    rep.shape_check(
        "critical path + tail reconciles with step-loop wall (5%): " +
            r.variant.name(),
        wall > 0.0 && crit > 0.0 &&
            std::fabs(wall - (crit + tail)) <= 0.05 * wall);
  }

  // Amdahl projection across ablation toggles: scale the source variant's
  // per-phase critical seconds (one pass) by modeled_to/modeled_from, with
  // both variants priced at the tiled layout (RunCost::by_phase_tiled_layout).
  // Every variant stores the same tiled layout — with tiling off the
  // emulator only marks every tile active — so the untiled locality
  // penalty in by_phase is a modeled effect that no measured critical
  // path contains; a ratio that carried it would under-project each phase
  // of a tiled variant by 1/1.6.  tile_sweep (about 1% of the tiled
  // variants' path) cannot be projected from Unoptimized, which never
  // runs it: the projection leaves that phase out.
  // Both what-if checks pair each pass's projection and measurement: the
  // four variants of a pass run back to back, so the ratios
  // projected/measured and measured/Unoptimized cancel most of the host
  // load drift between passes, and the checks gate on the median ratio.
  // The tolerance is the modeled class's 2% plus measurement noise
  // between separate wall-clock runs.
  const auto project = [](const CritSample& from,
                          const harness::BackendResult& from_run,
                          const harness::BackendResult& to) {
    double projected = 0.0;
    for (int p = 0; p < perfmodel::kNumPhases; ++p) {
      const auto i = static_cast<std::size_t>(p);
      const double m_from = from_run.cost.by_phase_tiled_layout[i];
      const double m_to = to.cost.by_phase_tiled_layout[i];
      projected += from.phase_s[i] * (m_from > 0.0 ? m_to / m_from : 1.0);
    }
    return projected;
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  };
  constexpr double kWhatIfTol = 0.02 + 0.18;  // modeled class + run noise
  const Row& base = rows[0];
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::vector<double> projected_s, projected_vs_measured, projected_vs_base,
        measured_vs_base;
    for (int pass = 0; pass < kReps; ++pass) {
      const CritSample& from = base.reps[static_cast<std::size_t>(pass)];
      const double actual = row.reps[static_cast<std::size_t>(pass)].critical_s;
      const double projected = project(from, unopt, row.result);
      projected_s.push_back(projected);
      projected_vs_measured.push_back(actual > 0.0 ? projected / actual : 0.0);
      projected_vs_base.push_back(projected / from.critical_s);
      measured_vs_base.push_back(actual / from.critical_s);
    }
    rep.metric("whatif_projected_s " + row.variant.name(),
               median(projected_s));
    const double agreement = median(projected_vs_measured);
    rep.shape_check(
        "what-if projection from Unoptimized agrees with measured "
        "critical path: " + row.variant.name(),
        agreement > 0.0 && std::fabs(agreement - 1.0) <= kWhatIfTol);
    // Direction must also agree — but only when the projected improvement
    // is large enough to rise above run noise (Fast Reduction only speeds
    // the small reduce_stats phase, a few percent of the path, which a
    // noisy run can wash out entirely).
    const double projected_improvement = 1.0 - median(projected_vs_base);
    const double measured_improvement = 1.0 - median(measured_vs_base);
    rep.shape_check(
        "measured critical path improves as the model predicts: " +
            row.variant.name(),
        std::fabs(projected_improvement) < 0.10 ||
            (projected_improvement > 0.0) == (measured_improvement > 0.0));
  }
  rep.finish();
  return 0;
}
