// Sliding-window counter monitor: at most `max_events` admissions within
// any window of length `window`.
//
// The third classic shaper besides the paper's delta^- scheme and the token
// bucket: it permits arbitrarily dense bursts up to max_events and then
// blocks until the window slides past. Its interference bound is
//     I(dt) = (ceil(dt / window) + 1) * max_events * C'_BH
// (a window-aligned burst can straddle each boundary), which sits between
// the token bucket's and Eq. 14's bounds for comparable configurations.
// Equivalent to the delta^- vector [0, ..., 0, window] with l = max_events
// -- implemented directly with a ring of admission timestamps, matching how
// such limiters are built in practice.
#pragma once

#include <cstdint>
#include <vector>

#include "mon/monitor.hpp"

namespace rthv::mon {

class WindowCountMonitor final : public ActivationMonitor {
 public:
  /// Throws std::invalid_argument for a non-positive window or
  /// max_events 0.
  WindowCountMonitor(sim::Duration window, std::uint32_t max_events);

  bool record_and_check(sim::TimePoint now) override;

  [[nodiscard]] sim::Duration window() const { return window_; }
  [[nodiscard]] std::uint32_t max_events() const { return max_; }

  /// Admissions currently inside the window ending at `now`.
  [[nodiscard]] std::uint32_t in_window(sim::TimePoint now) const;

  void snapshot_state(sim::StateWriter& w) const override {
    snapshot_base(w);
    w.pod_vec(admissions_);
    w.u64(next_);
    w.u64(stored_);
  }
  void restore_state(sim::StateReader& r) override {
    restore_base(r);
    r.pod_vec(admissions_);
    next_ = r.u64();
    stored_ = static_cast<std::uint32_t>(r.u64());
  }

 private:
  sim::Duration window_;  // lint: transient(configured window length; never mutated after construction)
  std::uint32_t max_;  // lint: transient(configured admission cap; never mutated after construction)
  // Ring of the last `max_` admission timestamps; the oldest relevant
  // admission decides whether a new one fits.
  std::vector<sim::TimePoint> admissions_;
  std::size_t next_ = 0;
  std::uint32_t stored_ = 0;
};

/// Worst-case interference of window-count-admitted interposing on other
/// partitions within dt.
[[nodiscard]] sim::Duration window_count_interference(sim::Duration dt,
                                                      sim::Duration window,
                                                      std::uint32_t max_events,
                                                      sim::Duration effective_bottom);

}  // namespace rthv::mon
