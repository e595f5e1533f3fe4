// Counter-based RNG: determinism, stream independence, statistical smoke
// checks, bid construction (§3.1 tie-freedom), and the step-keyed StepRng
// against the original five-round draw chain, bit for bit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace simcov {
namespace {

using VoxelId = std::uint64_t;

TEST(CounterRng, DeterministicAcrossInstances) {
  const CounterRng a(99), b(99);
  for (std::uint64_t step = 0; step < 100; ++step) {
    EXPECT_EQ(a.draw(step, 7, RngStream::kInfection),
              b.draw(step, 7, RngStream::kInfection));
  }
}

TEST(CounterRng, SeedChangesDraws) {
  const CounterRng a(1), b(2);
  int same = 0;
  for (std::uint64_t step = 0; step < 64; ++step) {
    same += (a.draw(step, 0, RngStream::kGeneric) ==
             b.draw(step, 0, RngStream::kGeneric));
  }
  EXPECT_EQ(same, 0);
}

TEST(CounterRng, StreamsAreIndependent) {
  const CounterRng rng(5);
  EXPECT_NE(rng.draw(3, 11, RngStream::kTCellBid),
            rng.draw(3, 11, RngStream::kTCellBindBid));
  EXPECT_NE(rng.draw(3, 11, RngStream::kInfection),
            rng.draw(3, 11, RngStream::kExtravasate));
}

TEST(CounterRng, SaltChangesDraws) {
  const CounterRng rng(5);
  EXPECT_NE(rng.draw(1, 2, RngStream::kGeneric, 0),
            rng.draw(1, 2, RngStream::kGeneric, 1));
}

TEST(CounterRng, UniformInUnitInterval) {
  const CounterRng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform(0, static_cast<std::uint64_t>(i),
                                 RngStream::kGeneric);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(CounterRng, UniformIntInRangeAndRoughlyUniform) {
  const CounterRng rng(23);
  const std::uint32_t k = 7;
  std::vector<int> counts(k, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    const std::uint32_t v =
        rng.uniform_int(1, static_cast<std::uint64_t>(i), RngStream::kGeneric, k);
    ASSERT_LT(v, k);
    ++counts[v];
  }
  for (std::uint32_t b = 0; b < k; ++b) {
    EXPECT_NEAR(counts[b], n / static_cast<int>(k), n / k / 10.0) << b;
  }
}

TEST(CounterRng, BernoulliEdgeCases) {
  const CounterRng rng(3);
  EXPECT_FALSE(rng.bernoulli(0, 0, RngStream::kGeneric, 0.0));
  EXPECT_FALSE(rng.bernoulli(0, 0, RngStream::kGeneric, -1.0));
  EXPECT_TRUE(rng.bernoulli(0, 0, RngStream::kGeneric, 1.0));
  EXPECT_TRUE(rng.bernoulli(0, 0, RngStream::kGeneric, 2.0));
}

TEST(CounterRng, BernoulliMatchesProbability) {
  const CounterRng rng(31);
  const double p = 0.3;
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(2, static_cast<std::uint64_t>(i),
                          RngStream::kGeneric, p);
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(CounterRng, PoissonMeanAndVariance) {
  const CounterRng rng(41);
  const double mean = 12.0;
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double k = rng.poisson(0, static_cast<std::uint64_t>(i),
                                 RngStream::kIncubationPeriod, mean);
    sum += k;
    sq += k * k;
  }
  const double m = sum / n;
  const double var = sq / n - m * m;
  EXPECT_NEAR(m, mean, 0.15);
  EXPECT_NEAR(var, mean, 0.6);  // Poisson: variance == mean
}

TEST(CounterRng, PoissonZeroMean) {
  const CounterRng rng(1);
  EXPECT_EQ(rng.poisson(0, 0, RngStream::kGeneric, 0.0), 0u);
}

TEST(CounterRng, PoissonNegativeMeanThrows) {
  const CounterRng rng(1);
  EXPECT_THROW(rng.poisson(0, 0, RngStream::kGeneric, -1.0), Error);
}

// ---------------------------------------------------------------------------
// StepRng: CounterRng::at(step) must reproduce the draws every backend and
// every recorded digest were built on.  The reference below spells out the
// original chain (seed, step, entity, stream, salt: one SplitMix64 round
// each) without going through rng.hpp, so both generators are pinned to it.
// ---------------------------------------------------------------------------

std::uint64_t chain_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct DrawKey {
  std::uint64_t seed, step, entity, stream, salt;
};

std::uint64_t chain_draw(const DrawKey& k) {
  std::uint64_t h = chain_mix(k.seed ^ 0x243f6a8885a308d3ULL);
  h = chain_mix(h ^ k.step);
  h = chain_mix(h ^ k.entity);
  h = chain_mix(h ^ k.stream);
  return chain_mix(h ^ k.salt);
}

double chain_uniform(const DrawKey& k) {
  return static_cast<double>(chain_draw(k) >> 11) *
         (1.0 / 9007199254740992.0);
}

std::uint32_t chain_poisson(DrawKey k, double mean) {
  if (mean == 0.0) return 0;
  const double limit = std::exp(-mean);
  const auto cap =
      static_cast<std::uint32_t>(mean + 40.0 * std::sqrt(mean) + 16.0);
  double product = 1.0;
  std::uint32_t n = 0;
  while (n < cap) {
    k.salt = n + 1;
    product *= chain_uniform(k);
    if (product <= limit) break;
    ++n;
  }
  return n;
}

/// Randomized keys with every component also taking 0 and 2^64 - 1.
std::vector<DrawKey> draw_keys() {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::mt19937_64 gen(0x5eedULL);
  std::vector<DrawKey> keys;
  for (int i = 0; i < 400; ++i) {
    keys.push_back({gen(), gen(), gen(), gen(), gen() % 4 ? gen() : 0});
  }
  for (int field = 0; field < 5; ++field) {
    for (const std::uint64_t edge : {std::uint64_t{0}, kMax}) {
      DrawKey k{gen(), gen(), gen(), gen(), gen()};
      std::array<std::uint64_t*, 5> f{&k.seed, &k.step, &k.entity, &k.stream,
                                      &k.salt};
      *f[static_cast<std::size_t>(field)] = edge;
      keys.push_back(k);
    }
  }
  keys.push_back({0, 0, 0, 0, 0});
  keys.push_back({kMax, kMax, kMax, kMax, kMax});
  return keys;
}

TEST(StepRng, DrawUniformIntAndBernoulliMatchTheChainBitForBit) {
  for (const DrawKey& k : draw_keys()) {
    const CounterRng crng(k.seed);
    const StepRng srng = crng.at(k.step);
    const auto stream = static_cast<RngStream>(k.stream);
    const std::uint64_t want = chain_draw(k);
    ASSERT_EQ(srng.draw(k.entity, stream, k.salt), want);
    ASSERT_EQ(crng.draw(k.step, k.entity, stream, k.salt), want);

    const double u = chain_uniform(k);
    ASSERT_EQ(srng.uniform(k.entity, stream, k.salt), u);
    ASSERT_EQ(crng.uniform(k.step, k.entity, stream, k.salt), u);

    for (const std::uint32_t n : {1u, 2u, 3u, 7u, 4096u, 0xffffffffu}) {
      const auto want_int = static_cast<std::uint32_t>(
          (static_cast<unsigned __int128>(want) * n) >> 64);
      ASSERT_EQ(srng.uniform_int(k.entity, stream, n, k.salt), want_int);
      ASSERT_EQ(crng.uniform_int(k.step, k.entity, stream, n, k.salt),
                want_int);
    }
    for (const double p : {-0.5, 0.0, 1e-9, 0.3, 0.5, 0.999, 1.0, 2.0}) {
      const bool want_hit = p >= 1.0 || (p > 0.0 && u < p);
      ASSERT_EQ(srng.bernoulli(k.entity, stream, p, k.salt), want_hit);
      ASSERT_EQ(crng.bernoulli(k.step, k.entity, stream, p, k.salt),
                want_hit);
    }
  }
}

TEST(StepRng, PoissonMatchesTheChainBitForBit) {
  const std::vector<DrawKey> keys = draw_keys();
  for (const double mean : {0.0, 1.0, 30.0, 120.0}) {
    for (std::size_t i = 0; i < keys.size(); i += 3) {
      const DrawKey& k = keys[i];
      const auto stream = static_cast<RngStream>(k.stream);
      const std::uint32_t want = chain_poisson(k, mean);
      ASSERT_EQ(CounterRng(k.seed).at(k.step).poisson(k.entity, stream, mean),
                want)
          << "mean=" << mean;
      ASSERT_EQ(CounterRng(k.seed).poisson(k.step, k.entity, stream, mean),
                want)
          << "mean=" << mean;
    }
  }
}

TEST(Bid, EncodesSourceVoxel) {
  const CounterRng rng(77);
  const std::uint64_t bid = make_bid(rng.at(10), 123456, RngStream::kTCellBid);
  EXPECT_EQ(bid_source(bid), 123456u);
}

TEST(Bid, DistinctSourcesNeverTie) {
  // The paper accepts a vanishing tie probability; the voxel-id low bits
  // make ties impossible outright.
  const CounterRng rng(77);
  std::set<std::uint64_t> bids;
  for (VoxelId v = 0; v < 4096; ++v) {
    bids.insert(make_bid(rng.at(3), v, RngStream::kTCellBid));
  }
  EXPECT_EQ(bids.size(), 4096u);
}

TEST(Bid, WinnerIndependentOfComparisonOrder) {
  const CounterRng rng(7);
  std::vector<std::uint64_t> bids;
  for (VoxelId v = 10; v < 20; ++v) {
    bids.push_back(make_bid(rng.at(4), v, RngStream::kTCellBid));
  }
  std::uint64_t forward = 0;
  for (auto b : bids) forward = std::max(forward, b);
  std::uint64_t backward = 0;
  for (auto it = bids.rbegin(); it != bids.rend(); ++it) {
    backward = std::max(backward, *it);
  }
  EXPECT_EQ(forward, backward);
}

}  // namespace
}  // namespace simcov
