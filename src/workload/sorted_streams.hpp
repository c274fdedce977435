// Building blocks for merging ascending activation-time streams in linear
// time. Activation times are plain int64 nanosecond counts, so merging
// sorted streams yields exactly the sequence a sort of their concatenation
// yields: ties are equal values whichever stream they come from.
#pragma once

#include <span>
#include <vector>

#include "sim/time.hpp"

namespace rthv::workload::detail {

/// Appends `t` to the ascending vector `out`, keeping it ascending. The
/// generators emit almost-sorted sequences (a burst's tail may overlap the
/// next burst), so an insert moves past only the few entries it overlaps.
inline void push_sorted(std::vector<sim::TimePoint>& out, sim::TimePoint t) {
  auto pos = out.end();
  while (pos != out.begin() && t < *(pos - 1)) --pos;
  out.insert(pos, t);
}

/// Pulls the union of several ascending streams in ascending order. Each
/// pop scans the heads of the streams not yet exhausted (O(k) per pop for
/// k streams), which suits the handful of task streams a trace superposes.
class SortedMerge {
 public:
  /// `stream` must be ascending and outlive the merge.
  void add(std::span<const sim::TimePoint> stream) {
    if (!stream.empty()) live_.push_back(stream);
  }

  [[nodiscard]] bool done() const { return live_.empty(); }

  /// Removes and returns the smallest head. Requires !done().
  sim::TimePoint pop() {
    std::size_t min = 0;
    for (std::size_t i = 1; i < live_.size(); ++i) {
      if (live_[i].front() < live_[min].front()) min = i;
    }
    auto& head = live_[min];
    const sim::TimePoint t = head.front();
    head = head.subspan(1);
    if (head.empty()) {
      head = live_.back();
      live_.pop_back();
    }
    return t;
  }

 private:
  std::vector<std::span<const sim::TimePoint>> live_;
};

}  // namespace rthv::workload::detail
