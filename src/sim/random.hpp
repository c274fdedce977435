// Deterministic pseudo-random number generation for workload synthesis.
//
// We ship our own xoshiro256** generator and inverse-CDF samplers instead of
// <random> distributions because libstdc++/libc++ distribution algorithms are
// implementation-defined: using them would make traces differ across
// standard libraries. Every experiment in this project is reproducible
// bit-for-bit from a seed.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace rthv::sim {

/// SplitMix64 -- used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) -- fast, high-quality, tiny state.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  // The per-sample draws are defined here so that trace generators inline
  // them; the expressions (and their evaluation order) are the reference
  // definition every committed trace was generated with.

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in (0, 1] -- safe as input to log().
  double uniform01_open_low() { return 1.0 - uniform01(); }

  /// Uniform integer in [lo, hi] inclusive (unbiased via rejection).
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [lo, hi).
  double uniform_range(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Exponentially distributed value with the given mean (inverse CDF).
  double exponential(double mean) {
    assert(mean > 0.0);
    return -mean * std::log(uniform01_open_low());
  }

  /// Standard normal via Box-Muller (no state caching; two uniforms/call).
  double normal(double mean, double stddev);

  /// Raw generator state, for snapshot/restore. A generator with a restored
  /// state continues the exact stream it was snapshotted from.
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] State state() const { return s_; }
  void set_state(const State& s) { s_ = s; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace rthv::sim
