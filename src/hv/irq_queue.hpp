// Per-partition FIFO interrupt-event queue.
//
// The hypervisor pushes emulated IRQ events here from the top handler; the
// partition drains the queue head-first whenever it gets the CPU. FIFO
// order is what rules out interference between bottom handlers of the same
// source in the analysis (Section 4) and prevents out-of-order execution
// of interposed IRQs (Section 5).
//
// Storage is a fixed-capacity ring buffer sized once at construction --
// push/pop never allocate, matching both the real hypervisor (a static
// ring per partition) and the no-hot-alloc rule for the IRQ path.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hv/types.hpp"
#include "sim/state_io.hpp"

namespace rthv::hv {

class IrqQueue {
 public:
  /// @param capacity maximum queued events; further pushes are dropped and
  ///                 counted (a real queue is a fixed-size ring buffer).
  explicit IrqQueue(std::size_t capacity = 64);

  /// Returns false (and counts a drop) when the queue is full.
  bool push(const IrqEvent& event) {
    if (size_ >= capacity_) {
      ++drops_;
      return false;
    }
    std::size_t tail = head_ + size_;
    if (tail >= capacity_) tail -= capacity_;
    slots_[tail] = event;
    ++size_;
    ++pushed_;
    if (size_ > high_watermark_) high_watermark_ = size_;
    return true;
  }

  /// Pops the oldest event. Queue must not be empty.
  IrqEvent pop() {
    assert(size_ > 0);
    const IrqEvent e = slots_[head_];
    ++head_;
    if (head_ >= capacity_) head_ = 0;
    --size_;
    return e;
  }

  [[nodiscard]] const IrqEvent& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  [[nodiscard]] std::uint64_t total_pushed() const { return pushed_; }
  [[nodiscard]] std::size_t high_watermark() const { return high_watermark_; }

  /// Checkpoint of the ring contents and counters. The structural capacity
  /// is serialized too, making the stream self-describing: restoring onto a
  /// differently-sized queue throws in every build type instead of only
  /// assert-tripping in debug.
  ///
  /// Only the live FIFO window is serialized -- a pristine or near-empty
  /// queue costs O(size) words, not O(capacity). Restore rebases the window
  /// to slot 0; head position is representation, not state (FIFO order,
  /// counters, and the drop behavior are what's observable).
  void snapshot_state(sim::StateWriter& w) const {
    w.u64(capacity_);
    w.u64(size_);
    const std::size_t first = capacity_ - head_ < size_ ? capacity_ - head_ : size_;
    w.pod_span(slots_.data() + head_, first);
    w.pod_span(slots_.data(), size_ - first);
    w.u64(drops_);
    w.u64(pushed_);
    w.u64(high_watermark_);
  }
  void restore_state(sim::StateReader& r) {
    if (r.u64() != capacity_) {
      throw std::logic_error("IrqQueue::restore_state: capacity changed");
    }
    size_ = r.u64();
    if (size_ > capacity_) {
      throw std::logic_error("IrqQueue::restore_state: size exceeds capacity");
    }
    head_ = 0;
    r.pod_span(slots_.data(), size_);
    drops_ = r.u64();
    pushed_ = r.u64();
    high_watermark_ = r.u64();
  }

 private:
  std::size_t capacity_;
  std::vector<IrqEvent> slots_;  // ring storage, sized once at construction
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t pushed_ = 0;
  std::size_t high_watermark_ = 0;
};

}  // namespace rthv::hv
