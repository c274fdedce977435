#include "obs/metric_catalog.hpp"

namespace rthv::obs::catalog {

namespace {

constexpr Metric kFixed[] = {
    kIrqQueueDropped,
    kIrqCompleted,
    kIrqLatencyAll,
    kIrqServiced,
    kIrqDirectArrivals,
    kIrqMonitorChecked,
    kIrqInterposeStarted,
    kIrqDeniedMonitor,
    kIrqDeniedEngineBusy,
    kIrqDeniedBacklog,
    kIrqDeferredSlotSwitches,
    kCtxTdma,
    kCtxInterposeEnter,
    kCtxInterposeReturn,
    kIntcLostRaises,
    kSimExecutedEvents,
    kSimNowNs,
    kInterconnectStallNs,
    kInterconnectBurstsCharged,
    kInterconnectAccessesRegistered,
    kInterconnectAccessesThrottled,
    kInterconnectRoutes,
    kInterconnectEpochsRolled,
};

constexpr Family kFamilies[] = {kIrqCompletedBy,  kIrqLatencyBy,      kHealthBy,
                                kFaultInjectedBy, kIrqQueueDroppedBy, kInvariantViolations};

}  // namespace

std::optional<std::string_view> unit_of(std::string_view name) {
  for (const auto& m : kFixed) {
    if (m.name == name) return m.unit;
  }
  for (const auto& f : kFamilies) {
    if (name.size() > f.prefix.size() && name.starts_with(f.prefix)) return f.unit;
  }
  // core<N>/<name>: a core's own name behind a decimal core index.
  if (name.starts_with(kCorePrefix)) {
    std::size_t i = kCorePrefix.size();
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
    if (i > kCorePrefix.size() && i < name.size() && name[i] == '/') {
      return unit_of(name.substr(i + 1));
    }
  }
  return std::nullopt;
}

}  // namespace rthv::obs::catalog
