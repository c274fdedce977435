// Pending-event set of the discrete-event simulator.
//
// One doubly-linked list of pending events, sorted by (time, sequence).
// Inserts append at the tail when the new event is the latest (the common
// case: timers armed in the future), push at the head when it is the
// earliest, and otherwise walk from whichever end is nearer in time. Pops,
// dispatch and cancel are O(1) list unlinks.
//
// The design relies on the pending set staying small: an interior insert
// costs O(pending). Measured peak pending events are 3 for every shipped
// config, the fig6/fig7 runs and the multicore sweep, 4 for the ablations
// and fault_adversary.plan, 23 for the hunt smoke and 83 for
// fault_storm.plan. A workload that keeps thousands of events pending with
// random insert times would pay a long walk per insert.
//
// Determinism: pop order is strictly (time, sequence) -- identical to the
// indexed binary heap kept as tests/sim/reference_heap_queue.hpp (the
// reference model for the differential test). No sequence number is
// stored: a new event always carries the largest one, so the walk
// conditions alone (it goes after every entry with an equal time) keep FIFO
// among equal times.
//
// Slot storage is a bump-pointer arena with freelist reuse: trivially
// copyable Node records in one flat vector (relocated by memcpy on growth),
// callbacks in chunked stable storage (SmallCallback) so a running
// callback's captures never move even if scheduling from inside it grows
// the tables. No per-event allocation in steady state; EventId keeps the
// (slot, generation) encoding, so stale ids (already run or cancelled) are
// rejected in O(1).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/small_callback.hpp"
#include "sim/time.hpp"

namespace rthv::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return raw_ != 0; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint32_t slot, std::uint32_t generation)
      : raw_((static_cast<std::uint64_t>(generation) << 32) |
             static_cast<std::uint64_t>(slot)) {}
  [[nodiscard]] constexpr std::uint32_t slot() const {
    return static_cast<std::uint32_t>(raw_ & 0xffff'ffffULL);
  }
  [[nodiscard]] constexpr std::uint32_t generation() const {
    return static_cast<std::uint32_t>(raw_ >> 32);
  }
  std::uint64_t raw_ = 0;  // 0 == invalid / never scheduled (generations start at 1)
};

/// Time-ordered queue of one-shot callbacks.
class EventQueue {
 public:
  using Callback = SmallCallback;

  /// Schedules `fn` to run at absolute time `t`. Events with equal time run
  /// in scheduling order. The callable is constructed directly in its arena
  /// cell (one move out of `fn`, no intermediate Callback).
  template <typename F>
  EventId schedule(TimePoint t, F&& fn) {
    const std::uint32_t s = acquire_slot();
    Callback& cb = callback_of(s);
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, Callback>) {
      cb = std::forward<F>(fn);
    } else {
      cb.emplace(std::forward<F>(fn));
    }
    Node& n = nodes_[s];
    n.time_ns = t.count_ns();
    insert(s);
    ++size_;
    return EventId{s, n.generation};
  }

  /// Cancels a previously scheduled event. Returns true if the event was
  /// still pending (i.e. it will now never run). The entry and its callback
  /// are reclaimed immediately.
  bool cancel(EventId id) {
    if (!id.valid()) return false;
    const std::uint32_t s = id.slot();
    if (s >= nodes_.size()) return false;
    const Node& n = nodes_[s];
    if (n.generation != id.generation()) {
      return false;  // already ran or cancelled (release bumped the generation)
    }
    if (n.prev != kNpos) nodes_[n.prev].next = n.next; else head_ = n.next;
    if (n.next != kNpos) nodes_[n.next].prev = n.prev; else tail_ = n.prev;
    release_slot(s);
    --size_;
    return true;
  }

  /// True if no live events remain.
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest live event. Must not be called on an empty queue.
  [[nodiscard]] TimePoint next_time() const {
    assert(size_ > 0 && "next_time() on empty EventQueue");
    return TimePoint::at_ns(nodes_[head_].time_ns);
  }

  /// Removes and returns the earliest live event. Must not be called on an
  /// empty queue.
  struct Popped {
    TimePoint time;
    Callback callback;
  };
  Popped pop() {
    assert(size_ > 0 && "pop() on empty EventQueue");
    const std::uint32_t s = unlink_head();
    Popped out{TimePoint::at_ns(nodes_[s].time_ns), std::move(callback_of(s))};
    release_slot(s);
    return out;
  }

  /// Batched dispatch: runs up to `budget` due callbacks with time <=
  /// `horizon`, invoking `on_event(time)` immediately before each callback
  /// (the simulator advances its clock there). Callbacks run in place in
  /// the arena -- no per-event move out of the queue -- and may freely
  /// schedule or cancel; a callback cancelling its own id gets `false`,
  /// exactly like the pop() path. Returns the number of events dispatched;
  /// fewer than `budget` means the queue drained or the next event lies
  /// beyond `horizon`.
  template <typename Fn>
  std::uint64_t dispatch_due(TimePoint horizon, std::uint64_t budget, Fn&& on_event) {
    const std::int64_t h = horizon.count_ns();
    std::uint64_t dispatched = 0;
    while (dispatched < budget && size_ > 0) {
      if (nodes_[head_].time_ns > h) break;
      const std::uint32_t s = unlink_head();
      {
        // Invalidate the id before the callback runs (cancel-own-id returns
        // false, matching pop()), but keep the slot off the freelist until
        // after it returns so inner schedules cannot reuse the cell whose
        // captures are executing.
        Node& n = nodes_[s];
        if (++n.generation == 0) n.generation = 1;
        on_event(TimePoint::at_ns(n.time_ns));
      }
      ++dispatched;
      Callback& cb = callback_of(s);
      cb();
      cb.reset();
      // Re-index: the callback may have grown the node table.
      nodes_[s].next = free_head_;
      free_head_ = s;
    }
    return dispatched;
  }

  /// Pre-sizes the slot arena for `n` concurrently pending events.
  void reserve(std::size_t n) {
    nodes_.reserve(n);
    const std::size_t chunks = (n + kArenaChunkSize - 1) >> kArenaChunkShift;
    arena_.reserve(chunks);
    while (arena_.size() < chunks) {
      arena_.push_back(std::make_unique<Callback[]>(kArenaChunkSize));
    }
  }

  /// Slot-table footprint: high-water mark of concurrently pending events.
  /// Exposed so tests can assert that cancellation reclaims eagerly and the
  /// bookkeeping stays proportional to the peak live count, not the total
  /// number of events ever scheduled.
  [[nodiscard]] std::size_t allocated_slots() const { return nodes_.size(); }

  // -- checkpoint/restore -------------------------------------------------
  //
  // A Snapshot captures the queue's complete observable state: the node
  // table (times, generations, links), the list ends, the freelist, the
  // size, and a clone of every live callback cell. restore() puts all of it
  // back in place on the SAME queue object -- callbacks routinely capture
  // `this` pointers into the surrounding object graph, so a snapshot is
  // only meaningful for the queue (and system) that produced it. Restoring
  // is repeatable: the snapshot is not consumed, so fork-and-mutate drivers
  // can restore the same checkpoint arbitrarily often.
  //
  // Must not be called from inside a dispatched callback: mid-dispatch the
  // popped slot is in a transient state (generation already bumped, slot not
  // yet on the freelist). Between events every slot is either free or
  // linked into the list, which is what makes the round trip exact.
  class Snapshot;
  [[nodiscard]] Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 private:
  static constexpr std::uint32_t kNpos = 0xffff'ffffU;

  static constexpr std::size_t kArenaChunkShift = 10;  // 1024 callbacks per chunk
  static constexpr std::size_t kArenaChunkSize = std::size_t{1} << kArenaChunkShift;

  // Trivially copyable (the node vector relocates by memcpy); the callback
  // lives in the stable arena, never here. `next` doubles as the freelist
  // link while the slot is free.
  struct Node {
    std::int64_t time_ns;
    std::uint32_t generation;
    std::uint32_t prev;
    std::uint32_t next;
  };
  static_assert(std::is_trivially_copyable_v<Node>);

  [[nodiscard]] Callback& callback_of(std::uint32_t s) {
    return arena_[s >> kArenaChunkShift][s & (kArenaChunkSize - 1)];
  }
  [[nodiscard]] const Callback& callback_of(std::uint32_t s) const {
    return arena_[s >> kArenaChunkShift][s & (kArenaChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNpos) {
      const std::uint32_t s = free_head_;
      free_head_ = nodes_[s].next;
      return s;
    }
    const std::size_t s = nodes_.size();
    assert(s < kNpos && "EventQueue slot table full");
    if ((s >> kArenaChunkShift) == arena_.size()) {
      arena_.push_back(std::make_unique<Callback[]>(kArenaChunkSize));
    }
    nodes_.push_back(Node{0, 1, kNpos, kNpos});
    return static_cast<std::uint32_t>(s);
  }

  // The generation bump alone is what invalidates outstanding EventIds; a
  // released slot's links can stay stale because cancel() only reads them
  // after the generation check passes, which implies the slot is live.
  void release_slot(std::uint32_t s) {
    Node& n = nodes_[s];
    callback_of(s).reset();
    if (++n.generation == 0) n.generation = 1;  // keep ids nonzero on wrap
    n.next = free_head_;
    free_head_ = s;
  }

  /// Links node `s` into the sorted list. The new event carries the largest
  /// sequence number, so it must land after every equal-time entry, which
  /// the walk conditions in both directions guarantee. The ends are checked
  /// first (append at the tail is the dominant case); an interior insert
  /// walks from whichever end is closer in time -- the pending set mixes
  /// near deadlines with far timers, and a short-delay insert from the tail
  /// would traverse everything.
  void insert(std::uint32_t s) {
    Node& n = nodes_[s];
    if (head_ == kNpos) {
      n.prev = n.next = kNpos;
      head_ = tail_ = s;
      return;
    }
    const std::int64_t t = n.time_ns;
    const std::int64_t head_t = nodes_[head_].time_ns;
    const std::int64_t tail_t = nodes_[tail_].time_ns;
    if (tail_t <= t) {  // append after the tail (covers equal times)
      n.prev = tail_;
      n.next = kNpos;
      nodes_[tail_].next = s;
      tail_ = s;
      return;
    }
    if (t < head_t) {  // new minimum: push front
      n.prev = kNpos;
      n.next = head_;
      nodes_[head_].prev = s;
      head_ = s;
      return;
    }
    if (t - head_t <= tail_t - t) {
      // Forward from the head: first entry with time > t goes after us.
      std::uint32_t before = nodes_[head_].next;
      while (nodes_[before].time_ns <= t) before = nodes_[before].next;
      n.next = before;
      n.prev = nodes_[before].prev;
      nodes_[n.prev].next = s;
      nodes_[before].prev = s;
    } else {
      // Backward from the tail: last entry with time <= t goes before us.
      std::uint32_t after = nodes_[tail_].prev;
      while (nodes_[after].time_ns > t) after = nodes_[after].prev;
      n.prev = after;
      n.next = nodes_[after].next;
      nodes_[after].next = s;
      nodes_[n.next].prev = s;
    }
  }

  /// Unlinks the earliest event and returns its slot (still holding its
  /// callback; the caller releases it).
  std::uint32_t unlink_head() {
    const std::uint32_t s = head_;
    head_ = nodes_[s].next;
    if (head_ != kNpos) {
      nodes_[head_].prev = kNpos;
    } else {
      tail_ = kNpos;
    }
    --size_;
    return s;
  }

  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Callback[]>> arena_;  // stable chunked callback cells
  std::uint32_t head_ = kNpos;
  std::uint32_t tail_ = kNpos;
  std::uint32_t free_head_ = kNpos;
  std::size_t size_ = 0;

 public:
  // Defined down here so the private Node type is complete; the name was
  // declared in the public API block above.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot& operator=(Snapshot&&) noexcept = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// Number of pending events captured in the snapshot.
    [[nodiscard]] std::size_t live_events() const { return size; }

   private:
    friend class EventQueue;

    std::vector<Node> nodes;
    std::uint32_t head = kNpos;
    std::uint32_t tail = kNpos;
    std::uint32_t free_head = kNpos;
    std::size_t size = 0;
    // (slot, callback clone) for every pending event, in list order.
    std::vector<std::pair<std::uint32_t, Callback>> callbacks;
  };
};

inline EventQueue::Snapshot EventQueue::snapshot() const {
  Snapshot s;
  s.nodes = nodes_;
  s.head = head_;
  s.tail = tail_;
  s.free_head = free_head_;
  s.size = size_;
  s.callbacks.reserve(size_);
  for (std::uint32_t i = head_; i != kNpos; i = nodes_[i].next) {
    s.callbacks.emplace_back(i, callback_of(i).clone());
  }
  return s;
}

inline void EventQueue::restore(const Snapshot& snap) {
  // Drop the callbacks of the events pending right now; freelisted slots
  // hold empty cells already (release_slot resets eagerly).
  for (std::uint32_t i = head_; i != kNpos; i = nodes_[i].next) callback_of(i).reset();
  nodes_ = snap.nodes;
  head_ = snap.head;
  tail_ = snap.tail;
  free_head_ = snap.free_head;
  size_ = snap.size;
  // The slot table never shrinks, so the arena normally already covers the
  // snapshot; the growth loop guards the general case.
  const std::size_t chunks = (nodes_.size() + kArenaChunkSize - 1) >> kArenaChunkShift;
  while (arena_.size() < chunks) {
    arena_.push_back(std::make_unique<Callback[]>(kArenaChunkSize));
  }
  for (const auto& [slot, cb] : snap.callbacks) callback_of(slot) = cb.clone();
}

}  // namespace rthv::sim
