// The pure simulation rules: epithelial FSM, field updates (max principle),
// T cell intents, extravasation, vascular pool.  Property-style sweeps use
// TEST_P where the invariant must hold across a parameter range.

#include <gtest/gtest.h>

#include <cmath>

#include "core/params.hpp"
#include "core/rules.hpp"

namespace simcov::rules {
namespace {

SimParams params() { return SimParams::bench_fast(); }

// ---------------------------------------------------------------------------
// Epithelial FSM
// ---------------------------------------------------------------------------

TEST(EpiRules, HealthyStaysHealthyWithoutVirus) {
  const CounterRng rng(1);
  const SimParams p = params();
  for (std::uint64_t step = 0; step < 200; ++step) {
    const EpiUpdate u =
        update_epithelial(rng.at(step), 5, EpiState::kHealthy, 0, 0.0f, p);
    ASSERT_EQ(u.state, EpiState::kHealthy);
  }
}

TEST(EpiRules, HealthyEventuallyIncubatesUnderVirus) {
  const CounterRng rng(1);
  SimParams p = params();
  p.infectivity = 0.5;
  int infected = 0;
  for (std::uint64_t step = 0; step < 200; ++step) {
    const EpiUpdate u =
        update_epithelial(rng.at(step), 5, EpiState::kHealthy, 0, 1.0f, p);
    if (u.state == EpiState::kIncubating) {
      ++infected;
      EXPECT_GE(u.timer, 1u);
    }
  }
  EXPECT_NEAR(infected, 100, 25);  // ~Bernoulli(0.5) per step
}

TEST(EpiRules, IncubatingCountsDownThenExpresses) {
  const CounterRng rng(2);
  const SimParams p = params();
  EpiUpdate u =
      update_epithelial(rng.at(0), 9, EpiState::kIncubating, 3, 0.0f, p);
  EXPECT_EQ(u.state, EpiState::kIncubating);
  EXPECT_EQ(u.timer, 2u);
  u = update_epithelial(rng.at(1), 9, EpiState::kIncubating, 1, 0.0f, p);
  EXPECT_EQ(u.state, EpiState::kExpressing);
  EXPECT_GE(u.timer, 1u);
}

TEST(EpiRules, ExpressingAndApoptoticDie) {
  const CounterRng rng(2);
  const SimParams p = params();
  const StepRng r0 = rng.at(0);
  EXPECT_EQ(update_epithelial(r0, 9, EpiState::kExpressing, 1, 0.0f, p).state,
            EpiState::kDead);
  EXPECT_EQ(update_epithelial(r0, 9, EpiState::kApoptotic, 1, 0.0f, p).state,
            EpiState::kDead);
  EXPECT_EQ(update_epithelial(r0, 9, EpiState::kApoptotic, 5, 0.0f, p).timer,
            4u);
}

TEST(EpiRules, TerminalStatesAreInert) {
  const CounterRng rng(2);
  const SimParams p = params();
  EXPECT_EQ(update_epithelial(rng.at(0), 9, EpiState::kDead, 0, 1.0f, p).state,
            EpiState::kDead);
  EXPECT_EQ(update_epithelial(rng.at(0), 9, EpiState::kEmpty, 0, 1.0f, p).state,
            EpiState::kEmpty);
}

TEST(EpiRules, ProductionFlags) {
  EXPECT_FALSE(produces_virus(EpiState::kHealthy));
  EXPECT_TRUE(produces_virus(EpiState::kIncubating));   // hidden producers
  EXPECT_TRUE(produces_virus(EpiState::kExpressing));
  EXPECT_TRUE(produces_virus(EpiState::kApoptotic));
  EXPECT_FALSE(produces_virus(EpiState::kDead));
  EXPECT_FALSE(produces_chem(EpiState::kIncubating));   // undetected
  EXPECT_TRUE(produces_chem(EpiState::kExpressing));
  EXPECT_TRUE(produces_chem(EpiState::kApoptotic));
}

TEST(EpiRules, SamplePeriodAtLeastOne) {
  const CounterRng rng(3);
  for (std::uint64_t v = 0; v < 500; ++v) {
    EXPECT_GE(sample_period(rng.at(0), v, RngStream::kApoptosisPeriod, 0.1),
              1u);
  }
}

// ---------------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------------

TEST(FieldRules, ProduceDecayClampsToUnit) {
  EXPECT_FLOAT_EQ(produce_decay(0.99f, true, 0.5, 0.0), 1.0f);
  EXPECT_FLOAT_EQ(produce_decay(0.5f, false, 0.5, 1.0), 0.0f);
  EXPECT_NEAR(produce_decay(0.8f, false, 0.0, 0.25), 0.6f, 1e-6f);
  EXPECT_NEAR(produce_decay(0.0f, true, 0.1, 0.5), 0.1f, 1e-6f);
}

TEST(FieldRules, DiffuseFloorsTinyValues) {
  EXPECT_FLOAT_EQ(diffuse(1e-6f, 0.0, 4, 0.5, 1e-5), 0.0f);
  EXPECT_GT(diffuse(1e-3f, 0.0, 4, 0.1, 1e-5), 0.0f);
}

TEST(FieldRules, DiffuseIsolatedVoxelUnchanged) {
  EXPECT_FLOAT_EQ(diffuse(0.5f, 0.0, 0, 0.7, 0.0), 0.5f);
}

/// Discrete maximum principle: the updated value is a convex combination of
/// the centre and neighbour mean, so it stays within [min, max] of inputs —
/// parameterized over diffusion coefficients.
class DiffuseMaxPrinciple : public ::testing::TestWithParam<double> {};

TEST_P(DiffuseMaxPrinciple, StaysWithinNeighbourhoodRange) {
  const double D = GetParam();
  const CounterRng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    float vals[5];
    float lo = 1.0f, hi = 0.0f;
    for (int i = 0; i < 5; ++i) {
      vals[i] = static_cast<float>(rng.uniform(
          static_cast<std::uint64_t>(trial), static_cast<std::uint64_t>(i),
          RngStream::kGeneric));
      lo = std::min(lo, vals[i]);
      hi = std::max(hi, vals[i]);
    }
    double sum = 0.0;
    for (int i = 1; i < 5; ++i) sum += static_cast<double>(vals[i]);
    const float out = diffuse(vals[0], sum, 4, D, 0.0);
    ASSERT_GE(out, lo - 1e-6f);
    ASSERT_LE(out, hi + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(Coefficients, DiffuseMaxPrinciple,
                         ::testing::Values(0.0, 0.15, 0.5, 0.85, 1.0));

// ---------------------------------------------------------------------------
// T cell intents
// ---------------------------------------------------------------------------

NeighbourView make_view(std::initializer_list<EpiState> states) {
  NeighbourView nb;
  for (EpiState s : states) {
    nb.ids[static_cast<std::size_t>(nb.count)] =
        static_cast<VoxelId>(100 + nb.count);
    nb.epi[static_cast<std::size_t>(nb.count)] = s;
    ++nb.count;
  }
  return nb;
}

TEST(IntentRules, BindingPreferredOverMovement) {
  const CounterRng rng(5);
  const auto nb = make_view({EpiState::kHealthy, EpiState::kExpressing,
                             EpiState::kHealthy, EpiState::kHealthy});
  const Intent i = tcell_intent(rng.at(0), 50, EpiState::kHealthy, nb);
  EXPECT_EQ(i.kind, IntentKind::kBind);
  EXPECT_EQ(i.target, 101u);  // the only expressing candidate
}

TEST(IntentRules, OwnVoxelIsFirstBindCandidate) {
  const CounterRng rng(5);
  const auto nb = make_view({EpiState::kHealthy, EpiState::kHealthy});
  const Intent i = tcell_intent(rng.at(0), 50, EpiState::kExpressing, nb);
  EXPECT_EQ(i.kind, IntentKind::kBind);
  EXPECT_EQ(i.target, 50u);
}

TEST(IntentRules, IncubatingIsInvisible) {
  const CounterRng rng(5);
  const auto nb = make_view({EpiState::kIncubating, EpiState::kIncubating});
  const Intent i = tcell_intent(rng.at(0), 50, EpiState::kIncubating, nb);
  EXPECT_EQ(i.kind, IntentKind::kMove);  // nothing detectable -> random walk
}

TEST(IntentRules, MovementAvoidsEmptyVoxels) {
  const CounterRng rng(5);
  const auto nb = make_view({EpiState::kEmpty, EpiState::kDead,
                             EpiState::kEmpty, EpiState::kEmpty});
  for (std::uint64_t step = 0; step < 50; ++step) {
    const Intent i = tcell_intent(rng.at(step), 50, EpiState::kHealthy, nb);
    ASSERT_EQ(i.kind, IntentKind::kMove);
    ASSERT_EQ(i.target, 101u);  // the only tissue neighbour (dead is tissue)
  }
}

TEST(IntentRules, NoTargetWhenFullySurroundedByAirways) {
  const CounterRng rng(5);
  const auto nb = make_view({EpiState::kEmpty, EpiState::kEmpty});
  const Intent i = tcell_intent(rng.at(0), 50, EpiState::kHealthy, nb);
  EXPECT_EQ(i.kind, IntentKind::kNone);
}

TEST(IntentRules, MovementChoicesRoughlyUniform) {
  const CounterRng rng(5);
  const auto nb = make_view({EpiState::kHealthy, EpiState::kHealthy,
                             EpiState::kHealthy, EpiState::kHealthy});
  int counts[4] = {0, 0, 0, 0};
  const int n = 8000;
  for (int step = 0; step < n; ++step) {
    const Intent i =
        tcell_intent(rng.at(static_cast<std::uint64_t>(step)), 50,
                     EpiState::kHealthy, nb);
    ++counts[i.target - 100];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 4, n / 20);
}

TEST(IntentRules, BidMatchesMakeBidContract) {
  const CounterRng rng(5);
  const auto nb = make_view({EpiState::kHealthy});
  const Intent i = tcell_intent(rng.at(7), 42, EpiState::kHealthy, nb);
  EXPECT_EQ(i.bid, make_bid(rng.at(7), 42, RngStream::kTCellBid));
  EXPECT_EQ(bid_source(i.bid), 42u);
}

// ---------------------------------------------------------------------------
// Extravasation and the vascular pool
// ---------------------------------------------------------------------------

TEST(ExtravasationRules, AttemptCountFloorsAndCaps) {
  EXPECT_EQ(num_extravasation_attempts(0.0, 100), 0u);
  EXPECT_EQ(num_extravasation_attempts(-3.0, 100), 0u);
  EXPECT_EQ(num_extravasation_attempts(5.9, 100), 5u);
  EXPECT_EQ(num_extravasation_attempts(500.0, 100), 100u);
}

TEST(ExtravasationRules, AttemptVoxelInRange) {
  const CounterRng rng(9);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_LT(attempt_voxel(rng.at(3), i, 77), 77u);
  }
}

TEST(ExtravasationRules, AcceptanceProportionalToSignal) {
  const CounterRng rng(9);
  int lo = 0, hi = 0;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    lo += attempt_accepted(rng.at(1), i, 0.1f);
    hi += attempt_accepted(rng.at(2), i, 0.9f);
  }
  EXPECT_NEAR(lo, 2000, 300);
  EXPECT_NEAR(hi, 18000, 300);
  EXPECT_FALSE(attempt_accepted(rng.at(1), 0, 0.0f));  // zero signal never
}

TEST(PoolRules, ProductionStartsAfterDelay) {
  SimParams p = params();
  p.tcell_initial_delay = 10;
  p.tcell_generation_rate = 4.0;
  EXPECT_DOUBLE_EQ(pool_after_step(0.0, 9, p, 0),
                   0.0);  // before the delay: nothing
  EXPECT_GT(pool_after_step(0.0, 10, p, 0), 0.0);
}

TEST(PoolRules, DecayAndRemovalApply) {
  SimParams p = params();
  p.tcell_initial_delay = 1000000;  // no production in this test
  p.tcell_vascular_period = 2;      // halves each step
  EXPECT_DOUBLE_EQ(pool_after_step(10.0, 0, p, 0), 5.0);
  EXPECT_DOUBLE_EQ(pool_after_step(10.0, 0, p, 3), 2.0);
  EXPECT_DOUBLE_EQ(pool_after_step(1.0, 0, p, 5), 0.0);  // clamped at zero
}

TEST(Digest, SensitiveToEveryField) {
  const auto base = voxel_digest(1, EpiState::kHealthy, 0, 0, 0, 0, 0.f, 0.f);
  EXPECT_NE(base, voxel_digest(2, EpiState::kHealthy, 0, 0, 0, 0, 0.f, 0.f));
  EXPECT_NE(base, voxel_digest(1, EpiState::kDead, 0, 0, 0, 0, 0.f, 0.f));
  EXPECT_NE(base, voxel_digest(1, EpiState::kHealthy, 1, 0, 0, 0, 0.f, 0.f));
  EXPECT_NE(base, voxel_digest(1, EpiState::kHealthy, 0, 1, 0, 0, 0.f, 0.f));
  EXPECT_NE(base, voxel_digest(1, EpiState::kHealthy, 0, 0, 9, 0, 0.f, 0.f));
  EXPECT_NE(base, voxel_digest(1, EpiState::kHealthy, 0, 0, 0, 2, 0.f, 0.f));
  EXPECT_NE(base, voxel_digest(1, EpiState::kHealthy, 0, 0, 0, 0, 0.5f, 0.f));
  EXPECT_NE(base, voxel_digest(1, EpiState::kHealthy, 0, 0, 0, 0, 0.f, 0.5f));
}

}  // namespace
}  // namespace simcov::rules
