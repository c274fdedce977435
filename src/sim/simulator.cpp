#include "sim/simulator.hpp"

#include <cassert>
#include <utility>

namespace rthv::sim {

std::uint64_t Simulator::run_until(TimePoint horizon) {
  // Batched dispatch: the queue runs due callbacks in place, so the
  // per-event cost is an O(1) list pop plus the callback itself. The outer
  // loop exists solely to re-check the event limit between batches.
  std::uint64_t n = 0;
  for (;;) {
    std::uint64_t budget = UINT64_MAX;
    if (event_limit_ != 0) {
      if (executed_ >= event_limit_) break;
      budget = event_limit_ - executed_;
    }
    const std::uint64_t ran =
        queue_.dispatch_due(horizon, budget, [this](TimePoint t) { now_ = t; });
    executed_ += ran;
    n += ran;
    if (ran < budget) break;  // queue drained or next event beyond horizon
  }
  // Do not jump the clock when the event limit cut the run short.
  if (horizon != TimePoint::max() && now_ < horizon && !event_limit_reached()) {
    now_ = horizon;
  }
  return n;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // Budget-1 dispatch: the callback runs in place in the queue's arena, so
  // stepping avoids the move-out-of-the-slot that pop() pays.
  queue_.dispatch_due(TimePoint::max(), 1, [this](TimePoint t) { now_ = t; });
  ++executed_;
  return true;
}

}  // namespace rthv::sim
