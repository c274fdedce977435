#include "hv/health.hpp"

#include <cassert>
#include <numeric>

namespace rthv::hv {

std::string_view to_string(HealthEventKind k) {
  switch (k) {
    case HealthEventKind::kIrqQueueOverflow: return "irq-queue-overflow";
    case HealthEventKind::kIrqRaiseLost: return "irq-raise-lost";
    case HealthEventKind::kMonitorViolation: return "monitor-violation";
    case HealthEventKind::kBudgetOverrun: return "budget-overrun";
    case HealthEventKind::kDeferredBoundary: return "deferred-boundary";
    case HealthEventKind::kCount_: break;
  }
  return "?";
}

HealthMonitor::HealthMonitor(std::size_t ring_capacity) : capacity_(ring_capacity) {
  assert(capacity_ > 0);
}

void HealthMonitor::report(const HealthEvent& event) {
  assert(event.kind != HealthEventKind::kCount_);
  ++counts_[static_cast<std::size_t>(event.kind)];
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(event);
  if (trace_ != nullptr) {
    RTHV_TRACE(*trace_, event.time.count_ns(), obs::TracePoint::kHealth,
               obs::TraceCategory::kOther, event.partition, event.source,
               static_cast<std::uint64_t>(event.kind));
  }
}

std::uint64_t HealthMonitor::count(HealthEventKind k) const {
  return counts_[static_cast<std::size_t>(k)];
}

std::uint64_t HealthMonitor::total() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

void HealthMonitor::clear() {
  ring_.clear();
  counts_.fill(0);
}

}  // namespace rthv::hv
