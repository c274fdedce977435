#include "hv/health.hpp"

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

}  // namespace rthv::hv
