// The one catalog of metric names. Every name a HypervisorSystem or
// MulticoreSystem snapshot emits is either a fixed entry below (a literal
// with static storage, which a MetricsSnapshot refers to by
// std::string_view) or a member of one of the families, whose names are
// built from a config, a contract name or an enum's to_string() spelling
// and kept by obs::intern_name().
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace rthv::obs::catalog {

struct Metric {
  std::string_view name;
  std::string_view unit;
};

/// A name family: `prefix` followed by a name chosen outside the catalog.
struct Family {
  std::string_view prefix;
  std::string_view unit;
};

// --- HypervisorSystem::metrics_snapshot(), in emission order -------------------

inline constexpr Metric kIrqQueueDropped{"irq_queue/dropped", "irqs"};
inline constexpr Metric kIrqCompleted{"irq.completed", "irqs"};
inline constexpr Metric kIrqLatencyAll{"irq.latency.all", "ns"};  // histogram
inline constexpr Metric kIrqServiced{"irq.serviced", "irqs"};
inline constexpr Metric kIrqDirectArrivals{"irq.direct_arrivals", "irqs"};
inline constexpr Metric kIrqMonitorChecked{"irq.monitor_checked", "irqs"};
inline constexpr Metric kIrqInterposeStarted{"irq.interpose_started", "irqs"};
inline constexpr Metric kIrqDeniedMonitor{"irq.denied.monitor", "irqs"};
inline constexpr Metric kIrqDeniedEngineBusy{"irq.denied.engine_busy", "irqs"};
inline constexpr Metric kIrqDeniedBacklog{"irq.denied.backlog", "irqs"};
inline constexpr Metric kIrqDeferredSlotSwitches{"irq.deferred_slot_switches", "switches"};
inline constexpr Metric kCtxTdma{"ctx.tdma", "switches"};
inline constexpr Metric kCtxInterposeEnter{"ctx.interpose_enter", "switches"};
inline constexpr Metric kCtxInterposeReturn{"ctx.interpose_return", "switches"};
inline constexpr Metric kIntcLostRaises{"intc.lost_raises", "raises"};
inline constexpr Metric kSimExecutedEvents{"sim.executed_events", "events"};
inline constexpr Metric kSimNowNs{"sim.now_ns", "ns"};  // gauge

// --- MulticoreSystem::metrics_snapshot(), after the per-core names -------------

inline constexpr Metric kInterconnectStallNs{"interconnect/stall_ns", "ns"};
inline constexpr Metric kInterconnectBurstsCharged{"interconnect/bursts_charged", "bursts"};
inline constexpr Metric kInterconnectAccessesRegistered{"interconnect/accesses_registered",
                                                        "accesses"};
inline constexpr Metric kInterconnectAccessesThrottled{"interconnect/accesses_throttled",
                                                       "accesses"};
inline constexpr Metric kInterconnectRoutes{"interconnect/routes", "messages"};
inline constexpr Metric kInterconnectEpochsRolled{"interconnect/epochs_rolled", "epochs"};

// --- families -------------------------------------------------------------------

/// irq.completed.<class> and irq.latency.<class> (a histogram), one per
/// stats::HandlingClass.
inline constexpr Family kIrqCompletedBy{"irq.completed.", "irqs"};
inline constexpr Family kIrqLatencyBy{"irq.latency.", "ns"};
/// health.<kind>, one per hv::HealthEventKind.
inline constexpr Family kHealthBy{"health.", "events"};
/// fault/injected/<kind>, one per fault::FaultKind an armed FaultEngine injects.
inline constexpr Family kFaultInjectedBy{"fault/injected/", "injections"};
/// irq_queue/dropped/<partition name>, interned when a HypervisorSystem is built.
inline constexpr Family kIrqQueueDroppedBy{"irq_queue/dropped/", "irqs"};
/// invariant/violations/<contract name>, from core::InvariantCounters::publish.
inline constexpr Family kInvariantViolations{"invariant/violations/", "violations"};
/// core<N>/<any HypervisorSystem name>: MulticoreSystem's per-core metrics.
inline constexpr std::string_view kCorePrefix = "core";

/// The interned names `family.prefix` + to_string(e) for every value e of
/// the enum E (which ends in kCount_), indexed by e. Meant for a
/// function-local static in the emitting module, so the names are built
/// once per process.
template <typename E>
[[nodiscard]] std::array<std::string_view, static_cast<std::size_t>(E::kCount_)> enum_names(
    Family family) {
  std::array<std::string_view, static_cast<std::size_t>(E::kCount_)> names;
  std::string name;
  for (std::size_t i = 0; i < names.size(); ++i) {
    names[i] = intern_name(name.assign(family.prefix).append(to_string(static_cast<E>(i))));
  }
  return names;
}

/// The unit of `name` -- its fixed entry's or its family's -- or nullopt
/// when `name` is not catalogued.
[[nodiscard]] std::optional<std::string_view> unit_of(std::string_view name);

}  // namespace rthv::obs::catalog
