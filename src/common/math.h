// Small integer-math helpers shared by the scheduler and simulator.
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "common/check.h"

namespace etsn {

/// Least common multiple of two positive integers, or nullopt when it
/// does not fit int64.
inline std::optional<std::int64_t> tryLcm64(std::int64_t a, std::int64_t b) {
  ETSN_CHECK(a > 0 && b > 0);
  std::int64_t out = 0;
  if (__builtin_mul_overflow(a / std::gcd(a, b), b, &out)) return std::nullopt;
  return out;
}

/// Least common multiple of two positive integers.  Throws ConfigError when
/// it does not fit int64 (std::lcm computes in unsigned arithmetic and
/// wraps silently).
inline std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  const std::optional<std::int64_t> out = tryLcm64(a, b);
  ETSN_REQUIRE(out, "the least common multiple of " << a << " and " << b
                                                    << " overflows int64");
  return *out;
}

/// LCM of a non-empty list of positive integers (e.g. the hyperperiod of a
/// set of stream periods).
inline std::int64_t lcmAll(const std::vector<std::int64_t>& vs) {
  ETSN_CHECK(!vs.empty());
  std::int64_t acc = 1;
  for (std::int64_t v : vs) acc = lcm64(acc, v);
  return acc;
}

/// Greatest common divisor of a non-empty list of positive integers.
inline std::int64_t gcdAll(const std::vector<std::int64_t>& vs) {
  ETSN_CHECK(!vs.empty());
  std::int64_t acc = 0;
  for (std::int64_t v : vs) acc = std::gcd(acc, v);
  return acc;
}

}  // namespace etsn
