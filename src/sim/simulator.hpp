// The discrete-event simulator: a virtual clock plus the event queue.
//
// Components schedule callbacks at absolute or relative times; run() pops
// events in time order and advances the clock. Time never moves backwards,
// and callbacks scheduled "now" from within a callback run after all other
// callbacks already pending at the same instant (FIFO among equals).
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::sim {

class Simulator {
 public:
  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must not be in the past). The
  /// closure is copied into its queue node (see InlineCallable).
  template <InlineCallable F>
  EventId schedule_at(TimePoint t, const F& fn) {
    assert(t >= now_ && "cannot schedule an event in the simulated past");
    return queue_.schedule(t, fn);
  }

  /// Schedules `fn` after a non-negative delay from now.
  template <InlineCallable F>
  EventId schedule_after(Duration d, const F& fn) {
    assert(!d.is_negative() && "delay must be non-negative");
    return queue_.schedule(now_ + d, fn);
  }

  /// Cancels a pending event; returns true if it had not yet run.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is empty or `horizon` is reached. Events at
  /// exactly `horizon` are executed; the clock is left at `horizon` if the
  /// horizon cut the run short, else at the last event time.
  /// Returns the number of events executed.
  std::uint64_t run_until(TimePoint horizon);

  /// Runs until the queue is empty.
  std::uint64_t run() { return run_until(TimePoint::max()); }

  /// Executes exactly one event if available; returns false on empty queue.
  bool step();

  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Time of the earliest pending event; must not be called when idle().
  /// The multi-core merge loop uses this to pick the core with the globally
  /// minimal next event.
  [[nodiscard]] TimePoint next_event_time() const { return queue_.next_time(); }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Checkpoint: the event queue, then the clock and the executed-event
  /// count. Restore in place on the same Simulator only; the words can be
  /// restored any number of times.
  void snapshot_state(StateWriter& w) const {
    queue_.snapshot_state(w);
    w.pod(now_);
    w.u64(executed_);
  }

  void restore_state(StateReader& r) {
    queue_.restore_state(r);
    now_ = r.pod<TimePoint>();
    executed_ = r.u64();
  }

 private:
  EventQueue queue_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t executed_ = 0;
};

}  // namespace rthv::sim
