#include "mon/learning_monitor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/checked.hpp"

namespace rthv::mon {

LearningDeltaMonitor::LearningDeltaMonitor(std::size_t depth,
                                           std::uint64_t learning_events,
                                           DeltaVector bound)
    : window_(depth),
      learning_remaining_(learning_events),
      bound_(std::move(bound)),
      learned_(depth, sim::Duration::max()) {
  if (!bound_.empty() && bound_.size() != depth) {
    throw std::invalid_argument("learning monitor bound has " +
                                std::to_string(bound_.size()) +
                                " entries but its depth l is " + std::to_string(depth));
  }
  // Algorithm 2 raises learned distances to the bound entry by entry, so a
  // bound that is not itself a delta^- function would be silently reshaped
  // by finish_learning()'s monotonicity pass.
  if (!bound_.empty()) validate_delta_vector(bound_);
  if (learning_remaining_ == 0) finish_learning();
}

const DeltaVector& LearningDeltaMonitor::enforced() const {
  // The enforced vector exists only after learning.
  RTHV_PRECONDITION(phase_ == Phase::kRunning, "mon/learning-finished");
  return enforced_;
}

void LearningDeltaMonitor::learn(sim::TimePoint now) {
  // Algorithm 1: shrink each recorded minimum distance if the current
  // activation is closer to the i-th previous one than anything seen so far.
  for (std::size_t i = 0; i < window_.filled(); ++i) {
    learned_[i] = std::min(learned_[i], now - window_[i]);
  }
  window_.record(now);
}

void LearningDeltaMonitor::finish_learning() {
  // Algorithm 2: raise learned distances to the predefined upper bound.
  enforced_ = learned_;
  if (!bound_.empty()) {
    for (std::size_t i = 0; i < enforced_.size(); ++i) {
      enforced_[i] = std::max(enforced_[i], bound_[i]);
    }
  }
  // Entries never exercised during learning stay at Duration::max(), which
  // would deny everything; clamp them to the bound (or to the largest
  // learned entry) instead.
  for (std::size_t i = 0; i < enforced_.size(); ++i) {
    if (enforced_[i] == sim::Duration::max()) {
      enforced_[i] = bound_.empty()
                         ? (i > 0 ? enforced_[i - 1] : sim::Duration::zero())
                         : bound_[i];
    }
  }
  // Enforce monotonicity (a delta^- function is non-decreasing).
  for (std::size_t i = 1; i < enforced_.size(); ++i) {
    enforced_[i] = std::max(enforced_[i], enforced_[i - 1]);
  }
  phase_ = Phase::kRunning;
}

bool LearningDeltaMonitor::record_and_check(sim::TimePoint now) {
  observe_arrival(now);
  if (phase_ == Phase::kLearning) {
    learn(now);
    if (--learning_remaining_ == 0) finish_learning();
    count(false);
    return false;  // learning phase: delayed/direct handling only
  }
  const bool admit = window_.conforms(now, enforced_);
  window_.record(now);
  count(admit);
  return admit;
}

}  // namespace rthv::mon
