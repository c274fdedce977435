// Trace generators for the paper's experiments.
//
//  * ExponentialTraceGenerator -- Section 6.1: interarrival distances follow
//    an exponential distribution with mean lambda; an optional floor models
//    scenario 3 where "the pseudo-random interarrival time is set at least
//    to d_min such that the monitoring condition is always satisfied".
//  * PeriodicTraceGenerator / BurstTraceGenerator -- building blocks for
//    synthetic multi-task streams.
//  * merge_traces -- superposition of several activation streams into one
//    IRQ source (sorted merge of absolute activation times).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"
#include "workload/trace.hpp"

namespace rthv::workload {

class ExponentialTraceGenerator {
 public:
  /// @param mean  mean interarrival distance (lambda in the paper)
  /// @param floor distances are clamped below to this value (zero = none)
  ExponentialTraceGenerator(sim::Duration mean, std::uint64_t seed,
                            sim::Duration floor = sim::Duration::zero());

  [[nodiscard]] Trace generate(std::size_t count);

  [[nodiscard]] sim::Duration mean() const { return mean_; }
  [[nodiscard]] sim::Duration floor() const { return floor_; }

 private:
  sim::Duration mean_;
  sim::Duration floor_;
  sim::Xoshiro256 rng_;
};

class PeriodicTraceGenerator {
 public:
  /// Periodic activations with uniformly distributed per-activation jitter
  /// in [-jitter, +jitter] and an initial phase offset.
  PeriodicTraceGenerator(sim::Duration period, sim::Duration jitter,
                         sim::Duration phase, std::uint64_t seed);

  /// Activations up to (and including none beyond) `horizon`, ascending.
  [[nodiscard]] std::vector<sim::TimePoint> generate_until(sim::Duration horizon);

 private:
  sim::Duration period_;
  sim::Duration jitter_;
  sim::Duration phase_;
  sim::Xoshiro256 rng_;
};

class BurstTraceGenerator {
 public:
  /// Bursts arrive as a Poisson process with the given mean separation; each
  /// burst contains uniform(1..max_burst_len) events spaced `intra_distance`
  /// apart.
  BurstTraceGenerator(sim::Duration mean_burst_separation, std::uint32_t max_burst_len,
                      sim::Duration intra_distance, std::uint64_t seed);

  /// Activations up to `horizon`, ascending.
  [[nodiscard]] std::vector<sim::TimePoint> generate_until(sim::Duration horizon);

 private:
  sim::Duration separation_;
  std::uint32_t max_len_;
  sim::Duration intra_;
  sim::Xoshiro256 rng_;
};

/// Superposes several absolute-time streams into one trace: a k-way merge
/// that sorts a copy of a stream first only if that stream is not already
/// ascending, so the result equals a sort of the concatenation.
[[nodiscard]] Trace merge_streams(const std::vector<std::vector<sim::TimePoint>>& streams);

/// Synthesizes the maximally dense activation trace that still conforms to
/// a delta^-[l] monitoring condition: each event arrives at the earliest
/// instant permitted by the recorded distances (greedy critical instant).
/// Driving the hypervisor with this trace realizes the admission pattern
/// behind Eq. 14's worst case, so measured interference approaches the
/// analytic bound. Throws std::invalid_argument unless `deltas` is a
/// delta^- function (see mon::Tracebuffer).
[[nodiscard]] Trace worst_case_conforming_trace(const std::vector<sim::Duration>& deltas,
                                                std::size_t count);

}  // namespace rthv::workload
