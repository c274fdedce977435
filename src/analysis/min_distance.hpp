// Minimum-distance functions delta^-(q).
//
// delta^-(q) is the minimum time span containing q consecutive events of a
// stream (Richter's standard event models). By convention delta^-(0) =
// delta^-(1) = 0 and delta^- is non-decreasing and superadditive-extensible.
// These functions are the dual of arrival curves eta^+ (see
// arrival_curve.hpp) and the input to the busy-window analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace rthv::analysis {

class MinDistanceFunction {
 public:
  virtual ~MinDistanceFunction() = default;

  /// Minimum span of q events; q = 0 and q = 1 yield zero.
  [[nodiscard]] sim::Duration operator()(std::uint64_t q) const {
    return q <= 1 ? sim::Duration::zero() : at(q);
  }

 protected:
  /// Implementations receive q >= 2.
  [[nodiscard]] virtual sim::Duration at(std::uint64_t q) const = 0;
};

/// Sporadic stream with minimum interarrival distance d:
///   delta^-(q) = (q - 1) * d.
class SporadicModel final : public MinDistanceFunction {
 public:
  explicit SporadicModel(sim::Duration d_min);
  [[nodiscard]] sim::Duration d_min() const { return d_; }

 protected:
  [[nodiscard]] sim::Duration at(std::uint64_t q) const override;

 private:
  sim::Duration d_;
};

/// Periodic stream with jitter and optional minimum distance (the "PJd"
/// standard event model):
///   delta^-(q) = max((q - 1) * P - J, (q - 1) * d).
class PeriodicJitterModel final : public MinDistanceFunction {
 public:
  PeriodicJitterModel(sim::Duration period, sim::Duration jitter,
                      sim::Duration d_min = sim::Duration::zero());
  [[nodiscard]] sim::Duration period() const { return period_; }
  [[nodiscard]] sim::Duration jitter() const { return jitter_; }

 protected:
  [[nodiscard]] sim::Duration at(std::uint64_t q) const override;

 private:
  sim::Duration period_;
  sim::Duration jitter_;
  sim::Duration d_;
};

/// Periodic bursts: every `outer_period` a burst of `burst_size` events
/// with `inner_distance` spacing arrives (the classic bursty standard event
/// model):
///   delta^-(q) = floor((q-1)/n) * P + ((q-1) mod n) * d.
class BurstModel final : public MinDistanceFunction {
 public:
  BurstModel(sim::Duration outer_period, std::uint32_t burst_size,
             sim::Duration inner_distance);
  [[nodiscard]] sim::Duration outer_period() const { return period_; }
  [[nodiscard]] std::uint32_t burst_size() const { return size_; }
  [[nodiscard]] sim::Duration inner_distance() const { return inner_; }

 protected:
  [[nodiscard]] sim::Duration at(std::uint64_t q) const override;

 private:
  sim::Duration period_;
  std::uint32_t size_;
  sim::Duration inner_;
};

/// delta^- specified by a finite vector (the monitor's delta^-[l]): entry i
/// is the minimum span of i + 2 events. Values beyond the vector are
/// extended superadditively:
///   delta^-(q + l + 1) >= delta^-(q) + delta^-(l + 2) ... applied greedily
/// with the largest recorded span, which is the standard conservative
/// extension for enforced patterns.
class VectorModel final : public MinDistanceFunction {
 public:
  explicit VectorModel(std::vector<sim::Duration> deltas);
  [[nodiscard]] const std::vector<sim::Duration>& deltas() const { return deltas_; }

 protected:
  [[nodiscard]] sim::Duration at(std::uint64_t q) const override;

 private:
  std::vector<sim::Duration> deltas_;  // deltas_[i] = delta^-(i + 2)
};

/// delta^- extracted from a concrete activation trace (timestamps sorted
/// ascending): delta^-(q) = min over all windows of q consecutive events.
/// Beyond the trace length the last slope is extended.
class TraceModel final : public MinDistanceFunction {
 public:
  explicit TraceModel(const std::vector<sim::TimePoint>& activations);

  [[nodiscard]] std::size_t trace_length() const { return spans_.size() + 1; }

 protected:
  [[nodiscard]] sim::Duration at(std::uint64_t q) const override;

 private:
  std::vector<sim::Duration> spans_;  // spans_[i] = delta^-(i + 2)
};

/// Convenience factory helpers.
[[nodiscard]] std::shared_ptr<MinDistanceFunction> make_sporadic(sim::Duration d_min);
[[nodiscard]] std::shared_ptr<MinDistanceFunction> make_periodic(
    sim::Duration period, sim::Duration jitter = sim::Duration::zero(),
    sim::Duration d_min = sim::Duration::zero());
[[nodiscard]] std::shared_ptr<MinDistanceFunction> make_bursty(
    sim::Duration outer_period, std::uint32_t burst_size, sim::Duration inner_distance);

/// Long-run activation rate of an event model in events per second
/// (lim q / delta^-(q), evaluated at a large q).
[[nodiscard]] double long_run_rate_hz(const MinDistanceFunction& delta);

/// Long-run processor utilization of a stream with per-event cost `cost`.
[[nodiscard]] double utilization(const MinDistanceFunction& delta, sim::Duration cost);

}  // namespace rthv::analysis
