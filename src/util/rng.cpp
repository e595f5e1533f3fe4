#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace simcov {

std::uint32_t StepRng::poisson(std::uint64_t entity, RngStream stream,
                               double mean) const {
  SIMCOV_REQUIRE(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  // Knuth inversion: product of uniforms until it drops below e^-mean.
  // Each iteration uses a distinct salt so draws are independent; the
  // (entity, stream) rounds are shared, so an iteration costs one mix.
  const std::uint64_t h = keyed(entity, stream);
  const double limit = std::exp(-mean);
  double product = 1.0;
  std::uint32_t k = 0;
  // Defensive cap: P(k > mean + 40*sqrt(mean)) is astronomically small.
  const std::uint32_t cap =
      static_cast<std::uint32_t>(mean + 40.0 * std::sqrt(mean) + 16.0);
  while (k < cap) {
    product *= to_unit(salted(h, /*salt=*/k + 1));
    if (product <= limit) break;
    ++k;
  }
  return k;
}

}  // namespace simcov
