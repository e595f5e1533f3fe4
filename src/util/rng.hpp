#pragma once
// Counter-based pseudo-random number generation.
//
// Every stochastic decision in the simulation is a *pure function* of its
// simulation coordinates: (seed, timestep, voxel, stream).  This is the
// property that makes the whole reproduction testable: the serial reference
// simulator, the CPU-parallel baseline and the virtual-GPU implementation
// all ask the same question ("does epithelial cell at voxel v become
// infected at step t?") and get the same answer regardless of how the domain
// is decomposed, how many ranks run, or which backend executes the update.
//
// The paper's bid-based T cell conflict resolution (§3.1) relies on exactly
// this style of RNG on the device: each T cell draws a bid from "a large
// range of integers" and neighbouring GPUs resolve identical winners from
// halo-exchanged bids.  We additionally fold the source voxel id into the
// low bits of the bid so that bids are unique by construction and the
// paper's "true ties are possible but ignorable" caveat becomes "ties are
// impossible" (see BidDraw below).
//
// The mixer is the SplitMix64 finalizer (Steele et al.), a well-studied
// 64-bit avalanche function; statistical quality is exercised by the rng
// unit tests (equidistribution and independence smoke checks).

#include <cstdint>

namespace simcov {

/// Identifies *which* decision at a given (step, voxel) a draw feeds, so that
/// independent decisions never share a counter.
enum class RngStream : std::uint64_t {
  kInfection = 0x1001,       ///< healthy -> incubating trial
  kIncubationPeriod = 0x1002,///< Poisson incubation-period sample
  kExpressingPeriod = 0x1003,///< Poisson expressing-period sample
  kApoptosisPeriod = 0x1004, ///< Poisson apoptosis-period sample
  kTCellDirection = 0x2001,  ///< T cell movement target choice
  kTCellBid = 0x2002,        ///< T cell movement bid value
  kTCellBindChoice = 0x2003, ///< which expressing neighbour to try to bind
  kTCellBindBid = 0x2004,    ///< binding-competition bid value
  kExtravasate = 0x3001,     ///< extravasation location / acceptance
  kExtravasateProb = 0x3002, ///< extravasation probability trial
  kGeneric = 0x7001,         ///< examples / tests
};

namespace rng_detail {

/// SplitMix64 finalizer: full-avalanche 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace rng_detail

/// The generator keyed at one step: holds the mixed (seed, step) prefix, so
/// each draw pays only the entity, stream and salt rounds.  Every rule that
/// runs inside a step takes one of these (CounterRng::at); a kernel or a
/// phase loop builds it once and draws from it per voxel.
class StepRng {
 public:
  /// Raw 64-bit draw for decision `stream` at `entity` in this step.
  /// `entity` is usually a voxel id; `salt` distinguishes repeated draws
  /// within one decision (e.g. rejection sampling iterations).
  constexpr std::uint64_t draw(std::uint64_t entity, RngStream stream,
                               std::uint64_t salt = 0) const {
    return salted(keyed(entity, stream), salt);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform(std::uint64_t entity, RngStream stream,
                           std::uint64_t salt = 0) const {
    return to_unit(draw(entity, stream, salt));
  }

  /// Uniform integer in [0, n).  n must be > 0.
  constexpr std::uint32_t uniform_int(std::uint64_t entity, RngStream stream,
                                      std::uint32_t n,
                                      std::uint64_t salt = 0) const {
    // 64-bit multiply-shift; bias is < 2^-32 which is negligible for the
    // small ranges (neighbour counts, tile counts) used here.
    const std::uint64_t r = draw(entity, stream, salt);
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(r) * n) >> 64);
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  constexpr bool bernoulli(std::uint64_t entity, RngStream stream, double p,
                           std::uint64_t salt = 0) const {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform(entity, stream, salt) < p;
  }

  /// Poisson sample by inversion (Knuth's algorithm); mean must be modest
  /// (incubation periods are O(100)), so we cap iterations defensively.
  /// The (entity, stream) rounds are mixed once; each iteration adds one.
  std::uint32_t poisson(std::uint64_t entity, RngStream stream,
                        double mean) const;

 private:
  friend class CounterRng;
  constexpr explicit StepRng(std::uint64_t prefix) : prefix_(prefix) {}

  constexpr std::uint64_t keyed(std::uint64_t entity, RngStream stream) const {
    using rng_detail::mix64;
    return mix64(mix64(prefix_ ^ entity) ^ static_cast<std::uint64_t>(stream));
  }
  static constexpr std::uint64_t salted(std::uint64_t keyed_h,
                                        std::uint64_t salt) {
    return rng_detail::mix64(keyed_h ^ salt);
  }
  /// 53 high bits -> [0,1) with full double precision.
  static constexpr double to_unit(std::uint64_t r) {
    return static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
  }

  std::uint64_t prefix_;  ///< mix64(mix64(seed ^ K) ^ step)
};

/// A counter-based generator: stateless, O(1) to "seek", and identical on
/// every backend.  Copies are free; there is no sequence to advance.  The
/// step-taking members are shorthands for at(step), kept for one-off draws
/// outside the per-step rules (FOI placement, airways, tests).
class CounterRng {
 public:
  constexpr explicit CounterRng(std::uint64_t seed)
      : seed_(seed), seed_h_(rng_detail::mix64(seed ^ 0x243f6a8885a308d3ULL)) {}

  /// The generator keyed at `step`.
  constexpr StepRng at(std::uint64_t step) const {
    return StepRng(rng_detail::mix64(seed_h_ ^ step));
  }

  /// Raw 64-bit draw for decision `stream` at (step, entity).
  constexpr std::uint64_t draw(std::uint64_t step, std::uint64_t entity,
                               RngStream stream, std::uint64_t salt = 0) const {
    return at(step).draw(entity, stream, salt);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform(std::uint64_t step, std::uint64_t entity,
                           RngStream stream, std::uint64_t salt = 0) const {
    return at(step).uniform(entity, stream, salt);
  }

  /// Uniform integer in [0, n).  n must be > 0.
  constexpr std::uint32_t uniform_int(std::uint64_t step, std::uint64_t entity,
                                      RngStream stream, std::uint32_t n,
                                      std::uint64_t salt = 0) const {
    return at(step).uniform_int(entity, stream, n, salt);
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  constexpr bool bernoulli(std::uint64_t step, std::uint64_t entity,
                           RngStream stream, double p,
                           std::uint64_t salt = 0) const {
    return at(step).bernoulli(entity, stream, p, salt);
  }

  /// Poisson sample (see StepRng::poisson).
  std::uint32_t poisson(std::uint64_t step, std::uint64_t entity,
                        RngStream stream, double mean) const {
    return at(step).poisson(entity, stream, mean);
  }

  constexpr std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t seed_h_;  ///< mix64(seed ^ K), the first round of every draw
};

/// Bid values for spatial resource competition (§3.1).  The top 32 bits are
/// a pseudo-random draw, the bottom 32 bits are the source voxel id, so two
/// distinct competitors can never tie, and every rank computes the same
/// winner from the same inputs.
constexpr std::uint64_t make_bid(const StepRng& rng, std::uint64_t source_voxel,
                                 RngStream stream) {
  const std::uint64_t r = rng.draw(source_voxel, stream);
  return (r & 0xffffffff00000000ULL) |
         (source_voxel & 0x00000000ffffffffULL);
}

/// Recovers the source voxel encoded in a bid (used when executing moves).
constexpr std::uint32_t bid_source(std::uint64_t bid) {
  return static_cast<std::uint32_t>(bid & 0xffffffffULL);
}

}  // namespace simcov
