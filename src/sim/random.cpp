#include "sim/random.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace rthv::sim {

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

std::uint64_t Xoshiro256::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range requested
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + v % span;
}

double Xoshiro256::normal(double mean, double stddev) {
  const double u1 = uniform01_open_low();
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

}  // namespace rthv::sim
