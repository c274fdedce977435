// Hypervisor health events (ARINC653 HM flavour).
//
// The paper motivates sufficient temporal independence with certification
// standards (IEC61508); certifiable hypervisors pair the isolation
// mechanism with a health monitor that records and reports violations of
// the assumptions the analysis rests on. The hypervisor reports five kinds:
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
// Each report is a kHealth trace record (arg0 = HealthEventKind) emitted at
// the reporting site; Hypervisor::health_count() derives the per-kind
// totals from the counters bumped at the same sites.
#pragma once

#include <cstdint>
#include <string_view>

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

}  // namespace rthv::hv
