// Hypervisor health monitoring (ARINC653 HM flavour).
//
// The paper motivates sufficient temporal independence with certification
// standards (IEC61508); certifiable hypervisors pair the isolation
// mechanism with a health monitor that records and reports violations of
// the assumptions the analysis rests on. This module collects such events
// from the hypervisor:
//
//   kIrqQueueOverflow  -- an emulated-IRQ event was dropped (queue full):
//                         the subscriber is not keeping up with its stream.
//   kIrqRaiseLost      -- a hardware raise hit an already-pending latch
//                         (the non-counting-flag hazard of Section 4).
//   kMonitorViolation  -- an activation violated the delta^- condition
//                         (expected under scenario 2; a *rate* of
//                         violations is an integration-error symptom).
//   kBudgetOverrun     -- an interposed bottom handler did not finish
//                         within its declared budget C_BHi (its WCET claim
//                         was wrong) and was carried into its own slot.
//   kDeferredBoundary  -- a TDMA boundary was deferred by a running bottom
//                         handler (bounded, but safety cases may cap it).
//
// Events are kept in a bounded ring buffer with per-kind counters and
// re-emitted as kHealth trace records.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string_view>

#include "hv/types.hpp"
#include "obs/trace_ring.hpp"
#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::hv {

enum class HealthEventKind : std::uint8_t {
  kIrqQueueOverflow,
  kIrqRaiseLost,
  kMonitorViolation,
  kBudgetOverrun,
  kDeferredBoundary,
  kCount_,
};

[[nodiscard]] std::string_view to_string(HealthEventKind k);

struct HealthEvent {
  sim::TimePoint time;
  HealthEventKind kind = HealthEventKind::kIrqQueueOverflow;
  /// Affected partition (kInvalidPartition when not applicable).
  PartitionId partition = kInvalidPartition;
  /// Originating IRQ source (UINT32_MAX when not applicable).
  IrqSourceId source = UINT32_MAX;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(std::size_t ring_capacity = 256);

  void report(const HealthEvent& event);

  /// Re-emits every reported event as a typed kHealth trace record
  /// (arg0 = HealthEventKind) on `ring`; pass nullptr to detach.
  void set_trace(obs::TraceRing* ring) { trace_ = ring; }

  [[nodiscard]] std::uint64_t count(HealthEventKind k) const;
  [[nodiscard]] std::uint64_t total() const;

  /// Most recent events, oldest first (bounded by the ring capacity).
  [[nodiscard]] const std::deque<HealthEvent>& recent() const { return ring_; }

  void clear();

  /// Checkpoint of the event ring and per-kind counters (the trace
  /// attachment is wiring).
  void snapshot_state(sim::StateWriter& w) const {
    w.u64(ring_.size());
    for (const HealthEvent& e : ring_) w.pod(e);
    w.pod_span(counts_.data(), counts_.size());
  }
  void restore_state(sim::StateReader& r) {
    const std::uint64_t n = r.u64();
    ring_.clear();
    for (std::uint64_t i = 0; i < n; ++i) ring_.push_back(r.pod<HealthEvent>());
    r.pod_span(counts_.data(), counts_.size());
  }

 private:
  std::size_t capacity_;  // lint: transient(structural ring bound fixed at construction)
  std::deque<HealthEvent> ring_;
  std::array<std::uint64_t, static_cast<std::size_t>(HealthEventKind::kCount_)> counts_{};
  obs::TraceRing* trace_ = nullptr;  // lint: transient(trace wiring; the ring is snapshotted by its owner)
};

}  // namespace rthv::hv
