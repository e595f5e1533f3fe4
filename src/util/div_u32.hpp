#pragma once
// Division by a run-time invariant 32-bit divisor without a divide
// instruction, shared by the grid's id -> coordinate split (core/grid.hpp)
// and the tiled layout's addressing (simcov_gpu/layout.hpp).

#include <cstdint>

#include "util/error.hpp"

namespace simcov::util {

/// Unsigned 32-bit division by a run-time invariant divisor as one 64-bit
/// multiply-high (Lemire, Kaser & Kurz 2019): with M = ceil(2^64 / d),
/// n / d == (n * M) >> 64 for every 32-bit n and every d >= 2.  d == 1
/// would need M = 2^64, so it keeps M = 0 and adds n back through a mask.
class DivU32 {
 public:
  explicit DivU32(std::uint32_t d)
      : m_(d > 1 ? ~std::uint64_t{0} / d + 1 : 0),
        identity_(d == 1 ? ~std::uint32_t{0} : 0),
        d_(d) {
    SIMCOV_REQUIRE(d >= 1, "divisor must be positive");
  }

  std::uint32_t divisor() const { return d_; }
  std::uint32_t div(std::uint32_t n) const {
    __extension__ using U128 = unsigned __int128;
    return static_cast<std::uint32_t>((U128{m_} * n) >> 64) + (n & identity_);
  }

 private:
  std::uint64_t m_;
  std::uint32_t identity_;  ///< all ones when d == 1, else 0
  std::uint32_t d_;
};

}  // namespace simcov::util
