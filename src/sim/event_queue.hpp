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
// Storage is plain data: one flat vector of trivially copyable nodes with
// freelist reuse. Each node holds its callable inline -- an invoke pointer
// plus a fixed byte buffer -- so scheduling copies the closure into its
// node, pop() copies it back out and frees the slot before the caller
// invokes it, and a checkpoint is the node vector's words. Only trivially
// copyable closures that fit the buffer can be scheduled; anything else is
// a compile error at the schedule call. No per-event allocation in steady
// state; EventId keeps the (slot, generation) encoding, so stale ids
// (already run or cancelled) are rejected in O(1).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::sim {

/// Capture budget of a scheduled callable: the hypervisor's largest
/// continuation, a `this` pointer plus four words of state.
inline constexpr std::size_t kCallbackBytes = 40;

/// What the event queue can store: a trivially copyable `void()` callable
/// that fits the inline buffer. Closures capturing pointers, references and
/// plain values qualify; move-only or oversized captures do not compile.
template <typename F>
concept InlineCallable =
    std::is_trivially_copyable_v<F> && sizeof(F) <= kCallbackBytes &&
    alignof(F) <= alignof(std::uint64_t) && std::is_invocable_r_v<void, F&>;

/// A scheduled callable stored by value: the closure's bytes plus the
/// function that invokes them. Trivially copyable itself, so it moves with
/// its node and checkpoints as plain words.
class EventCallback {
 public:
  /// Stores a copy of `f` in place, replacing whatever was stored. Writing
  /// straight into the destination (rather than assigning a temporary)
  /// copies only sizeof(F) bytes on the schedule path.
  template <InlineCallable F>
  void emplace(const F& f) noexcept {
    invoke_ = &call<F>;
    ::new (static_cast<void*>(bytes_)) F(f);
  }

  /// Invokes the stored callable. Must not be called on an empty callback.
  void operator()() { invoke_(bytes_); }

  /// Copies `other` one 8-byte word at a time. The queue usually pops an
  /// event moments after scheduling it, while the narrow stores that wrote
  /// its captures are still in flight; a wider load overlapping them cannot
  /// be store-forwarded and stalls. The signal fences are compiler-only
  /// barriers that keep the word copies from being merged into vector
  /// loads.
  void copy_words_from(const EventCallback& other) noexcept {
    const auto* src = reinterpret_cast<const std::byte*>(&other);
    auto* dst = reinterpret_cast<std::byte*>(this);
    for (std::size_t i = 0; i < sizeof(EventCallback); i += sizeof(std::uint64_t)) {
      std::memcpy(dst + i, src + i, sizeof(std::uint64_t));
      std::atomic_signal_fence(std::memory_order_acq_rel);
    }
  }

 private:
  template <typename F>
  static void call(void* bytes) {
    (*std::launder(static_cast<F*>(bytes)))();
  }

  void (*invoke_)(void*) = nullptr;
  alignas(std::uint64_t) std::byte bytes_[kCallbackBytes];
};
static_assert(std::is_trivially_copyable_v<EventCallback>);
static_assert(sizeof(EventCallback) % sizeof(std::uint64_t) == 0);

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
  /// Schedules `fn` to run at absolute time `t`. Events with equal time run
  /// in scheduling order. The closure is copied into its node.
  template <InlineCallable F>
  EventId schedule(TimePoint t, const F& fn) {
    const std::uint32_t s = acquire_slot();
    Node& n = nodes_[s];
    n.time_ns = t.count_ns();
    n.callback.emplace(fn);
    insert(s);
    ++size_;
    return EventId{s, n.generation};
  }

  /// Cancels a previously scheduled event. Returns true if the event was
  /// still pending (i.e. it will now never run). The slot is reclaimed
  /// immediately.
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
  /// empty queue. The callback is a copy and its slot is already free, so
  /// invoking it may schedule or cancel anything (cancelling its own id
  /// returns false).
  struct Popped {
    TimePoint time;
    EventCallback callback;
  };
  Popped pop() {
    assert(size_ > 0 && "pop() on empty EventQueue");
    const std::uint32_t s = unlink_head();
    const Node& n = nodes_[s];
    Popped out;
    out.time = TimePoint::at_ns(n.time_ns);
    out.callback.copy_words_from(n.callback);
    release_slot(s);
    return out;
  }

  /// Pre-sizes the slot table for `n` concurrently pending events.
  void reserve(std::size_t n) { nodes_.reserve(n); }

  /// Slot-table footprint: high-water mark of concurrently pending events.
  /// Exposed so tests can assert that cancellation reclaims eagerly and the
  /// bookkeeping stays proportional to the peak live count, not the total
  /// number of events ever scheduled.
  [[nodiscard]] std::size_t allocated_slots() const { return nodes_.size(); }

  /// Checkpoint: the node table (times, generations, links and callbacks),
  /// the list ends, the freelist head and the size. Restoring puts it back
  /// on the SAME queue object -- callbacks capture `this` pointers into the
  /// surrounding object graph, so the words are only meaningful for the
  /// queue (and system) that wrote them.
  void snapshot_state(StateWriter& w) const {
    w.pod_vec(nodes_);
    w.u64(head_);
    w.u64(tail_);
    w.u64(free_head_);
    w.u64(size_);
  }

  void restore_state(StateReader& r) {
    r.pod_vec(nodes_);
    head_ = static_cast<std::uint32_t>(r.u64());
    tail_ = static_cast<std::uint32_t>(r.u64());
    free_head_ = static_cast<std::uint32_t>(r.u64());
    size_ = r.u64();
  }

 private:
  static constexpr std::uint32_t kNpos = 0xffff'ffffU;

  // `next` doubles as the freelist link while the slot is free; a free
  // slot's callback bytes are stale and never invoked.
  struct Node {
    std::int64_t time_ns;
    std::uint32_t generation;
    std::uint32_t prev;
    std::uint32_t next;
    EventCallback callback;
  };
  static_assert(std::is_trivially_copyable_v<Node>);

  std::uint32_t acquire_slot() {
    if (free_head_ != kNpos) {
      const std::uint32_t s = free_head_;
      free_head_ = nodes_[s].next;
      return s;
    }
    const std::size_t s = nodes_.size();
    assert(s < kNpos && "EventQueue slot table full");
    nodes_.push_back(Node{0, 1, kNpos, kNpos, {}});
    return static_cast<std::uint32_t>(s);
  }

  // The generation bump alone is what invalidates outstanding EventIds; a
  // released slot's links can stay stale because cancel() only reads them
  // after the generation check passes, which implies the slot is live.
  void release_slot(std::uint32_t s) {
    Node& n = nodes_[s];
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
  std::uint32_t head_ = kNpos;
  std::uint32_t tail_ = kNpos;
  std::uint32_t free_head_ = kNpos;
  std::size_t size_ = 0;
};

}  // namespace rthv::sim
