// Reference model for the event-queue differential test.
//
// This is the project's original pending-event set -- a single contiguous
// indexed binary min-heap ordered by (time, sequence number) -- preserved
// verbatim (namespace aside) when src/sim/event_queue.hpp was rewritten.
// The heap's pop order is the specification: strictly (time, seq), FIFO
// among equal times. The differential test drives both implementations
// with identical random operation streams and asserts identical observable
// behavior at every step.
//
// Test-only code: not built into any library, never included from src/.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace rthv::sim::reference {

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

/// Time-ordered queue of one-shot callbacks (indexed binary min-heap).
class EventQueue {
 public:
  using Callback = sim::EventCallback;

  /// Schedules `fn` to run at absolute time `t`. Events with equal time run
  /// in scheduling order.
  template <InlineCallable F>
  EventId schedule(TimePoint t, const F& fn) {
    const std::uint32_t s = acquire_slot();
    Slot& slot = slots_[s];
    slot.callback.emplace(fn);
    if (size_ == heap_cap_) grow_heap(size_ + 1);
    const std::size_t pos = size_++;
    heap_[pos] = HeapEntry{t, next_seq_++, s};
    sift_up(pos);  // final place() records heap_pos
    return EventId{s, slot.generation};
  }

  /// Cancels a previously scheduled event. Returns true if the event was
  /// still pending (i.e. it will now never run).
  bool cancel(EventId id) {
    if (!id.valid()) return false;
    const std::uint32_t s = id.slot();
    if (s >= slots_.size()) return false;
    Slot& slot = slots_[s];
    if (slot.generation != id.generation()) {
      return false;  // already ran or cancelled (release bumped the generation)
    }
    remove_heap_entry(slot.heap_pos);
    release_slot(s);
    return true;
  }

  /// True if no live events remain.
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest live event. Must not be called on an empty queue.
  [[nodiscard]] TimePoint next_time() const {
    assert(size_ > 0 && "next_time() on empty EventQueue");
    return heap_[0].time;
  }

  /// Removes and returns the earliest live event. Must not be called on an
  /// empty queue.
  struct Popped {
    TimePoint time;
    Callback callback;
  };
  Popped pop() {
    assert(size_ > 0 && "pop() on empty EventQueue");
    const HeapEntry top = heap_[0];
    Popped out{top.time, slots_[top.slot].callback};
    remove_heap_entry(0);
    release_slot(top.slot);
    return out;
  }

  /// Pre-sizes the heap and slot table for `n` concurrently pending events.
  void reserve(std::size_t n) {
    if (n > heap_cap_) grow_heap(n);
    slots_.reserve(n);
  }

  [[nodiscard]] std::size_t allocated_slots() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNpos = 0xffff'ffffU;

  // Trivially copyable; sift operations move these, never the callbacks.
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    Callback callback;
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kNpos;  // valid whenever the slot is live
    std::uint32_t next_free = kNpos;
  };

  static bool entry_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos) {
    const HeapEntry moving = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!entry_before(moving, heap_[parent])) break;
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, moving);
  }

  void sift_down(std::size_t pos) {
    const HeapEntry moving = heap_[pos];
    const std::size_t n = size_;
    while (true) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && entry_before(heap_[child + 1], heap_[child])) ++child;
      if (!entry_before(heap_[child], moving)) break;
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, moving);
  }

  /// Removes heap_[pos], restoring the heap invariant (swap-with-last).
  void remove_heap_entry(std::size_t pos) {
    const std::size_t last = --size_;
    if (pos == last) return;
    const HeapEntry displaced = heap_[last];
    place(pos, displaced);
    if (pos > 0 && entry_before(displaced, heap_[(pos - 1) / 2])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNpos) {
      const std::uint32_t s = free_head_;
      free_head_ = slots_[s].next_free;
      return s;
    }
    assert(slots_.size() < kNpos && "EventQueue slot table full");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (++slot.generation == 0) slot.generation = 1;  // keep ids nonzero on wrap
    slot.next_free = free_head_;
    free_head_ = s;
  }

  // Grows the entry buffer (cold path; entries are trivially copyable).
  void grow_heap(std::size_t min_cap) {
    std::size_t cap = heap_cap_ == 0 ? 64 : heap_cap_ * 2;
    if (cap < min_cap) cap = min_cap;
    std::unique_ptr<HeapEntry[]> bigger(new HeapEntry[cap]);
    if (size_ > 0) std::memcpy(bigger.get(), heap_.get(), size_ * sizeof(HeapEntry));
    heap_ = std::move(bigger);
    heap_cap_ = cap;
  }

  std::unique_ptr<HeapEntry[]> heap_;
  std::size_t heap_cap_ = 0;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNpos;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rthv::sim::reference
