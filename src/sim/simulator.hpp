// The discrete-event simulator: a virtual clock plus the event queue.
//
// Components schedule callbacks at absolute or relative times; run() pops
// events in time order and advances the clock. Time never moves backwards,
// and callbacks scheduled "now" from within a callback run after all other
// callbacks already pending at the same instant (FIFO among equals).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace rthv::sim {

class Simulator {
 public:
  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must not be in the past). The
  /// callable forwards straight into its queue slot (no intermediate
  /// Callback object on the hot path).
  template <typename F>
  EventId schedule_at(TimePoint t, F&& fn) {
    assert(t >= now_ && "cannot schedule an event in the simulated past");
    return queue_.schedule(t, std::forward<F>(fn));
  }

  /// Schedules `fn` after a non-negative delay from now.
  template <typename F>
  EventId schedule_after(Duration d, F&& fn) {
    assert(!d.is_negative() && "delay must be non-negative");
    return queue_.schedule(now_ + d, std::forward<F>(fn));
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

  /// Safety valve for tests: run_until() stops (returning normally) once
  /// this many events have executed in total. Zero disables the limit.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }
  [[nodiscard]] bool event_limit_reached() const {
    return event_limit_ != 0 && executed_ >= event_limit_;
  }

  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Time of the earliest pending event; must not be called when idle().
  /// The multi-core merge loop uses this to pick the core with the globally
  /// minimal next event.
  [[nodiscard]] TimePoint next_event_time() const { return queue_.next_time(); }

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  // -- checkpoint/restore -------------------------------------------------
  //
  // Full simulator state: clock, executed-event counter, event limit, and
  // the complete event queue (see EventQueue::Snapshot for the contract).
  // Restore-in-place on the same Simulator only; restoring is repeatable.
  struct Snapshot {
    EventQueue::Snapshot queue;
    TimePoint now;
    std::uint64_t executed = 0;
    std::uint64_t event_limit = 0;
  };

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{queue_.snapshot(), now_, executed_, event_limit_};
  }

  void restore(const Snapshot& snap) {
    queue_.restore(snap.queue);
    now_ = snap.now;
    executed_ = snap.executed;
    event_limit_ = snap.event_limit;
  }

 private:
  EventQueue queue_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t executed_ = 0;
  std::uint64_t event_limit_ = 0;
};

}  // namespace rthv::sim
