// Bounded ring buffer of TraceEvent records plus the RTHV_TRACE emit path.
//
// The ring overwrites oldest-first once full (the newest `capacity` events
// are always retained) and counts what it overwrote, so
//     dropped() == emitted() - size()
// holds at all times. Per-category emit counters are O(1) and survive
// wraparound, which keeps category_count() cheap even on long runs.
//
// Emission cost: instrumentation sites guard with `enabled()` (one load and
// a predictable branch -- see the RTHV_TRACE macro), so compiled-in but
// disabled tracing stays under a nanosecond per potential event and, by
// construction, never feeds anything back into the simulation.
//
// Checkpoints (snapshot_state/restore_state) carry the cursor, the counters
// and only the retained records, so a fork-and-restore loop pays for the
// events it traced, not for the ring's capacity.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/trace_event.hpp"
#include "sim/state_io.hpp"  // header-only, std-only: adds no link dependency

namespace rthv::obs {

class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit TraceRing(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {
    assert(capacity_ > 0);
  }

  /// Resizes and clears the ring (counters included). Keeps the enabled
  /// flag; storage is (re)allocated on the next enable if needed.
  void set_capacity(std::size_t capacity) {
    assert(capacity > 0);
    capacity_ = capacity;
    buffer_.clear();
    buffer_.shrink_to_fit();
    reset_counters();
    if (enabled_) buffer_.resize(capacity_);
  }

  /// Storage is allocated lazily on the first enable, so an idle ring costs
  /// sizeof(TraceRing) only. Disabling keeps recorded events readable.
  void set_enabled(bool on) {
    enabled_ = on;
    if (enabled_ && buffer_.size() != capacity_) buffer_.resize(capacity_);
  }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t category_count(TraceCategory c) const {
    return per_category_[static_cast<std::size_t>(c)];
  }

  /// Records one event. Callers normally go through RTHV_TRACE so the
  /// argument evaluation itself is skipped while disabled; calling emit()
  /// directly on a disabled ring is a safe no-op. A category outside
  /// TraceCategory throws std::invalid_argument (it indexes the per-category
  /// counters).
  void emit(const TraceEvent& event) {
    if (!enabled_) return;
    if (event.category >= TraceCategory::kCount_) [[unlikely]] {
      throw std::invalid_argument("TraceRing::emit: trace category out of range");
    }
    ++emitted_;
    ++per_category_[static_cast<std::size_t>(event.category)];
    buffer_[next_] = event;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
    if (count_ < capacity_) {
      ++count_;
    } else {
      ++dropped_;  // overwrote the oldest retained event
    }
  }

  void emit(std::int64_t time_ns, TracePoint point, TraceCategory category,
            std::uint32_t partition = kNoId, std::uint32_t source = kNoId,
            std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    TraceEvent e;
    e.time_ns = time_ns;
    e.point = point;
    e.category = category;
    e.partition = partition;
    e.source = source;
    e.arg0 = arg0;
    e.arg1 = arg1;
    emit(e);
  }

  /// The retained events in place, oldest first, as two contiguous blocks:
  /// the oldest slot to the end of storage, then the start of storage up to
  /// the write position (empty until the ring has wrapped).
  [[nodiscard]] std::array<std::span<const TraceEvent>, 2> retained() const {
    const std::size_t start = oldest_slot();
    const std::size_t head = std::min(count_, capacity_ - start);
    return {std::span<const TraceEvent>(buffer_.data() + start, head),
            std::span<const TraceEvent>(buffer_.data(), count_ - head)};
  }

  /// Copies the retained events out, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(count_);
    for (const auto block : retained()) out.insert(out.end(), block.begin(), block.end());
    return out;
  }

  /// Drops all events and zeroes every counter; keeps capacity, allocation
  /// and the enabled flag.
  void clear() { reset_counters(); }

  /// Checkpoint: capacity, enabled flag, cursor and counters, then the
  /// size() retained records oldest first -- two spans once the ring has
  /// wrapped. Slots outside the retained window are not written.
  void snapshot_state(sim::StateWriter& w) const {
    w.u64(capacity_);
    w.boolean(enabled_);
    w.u64(next_);
    w.u64(count_);
    w.u64(emitted_);
    w.u64(dropped_);
    w.pod_span(per_category_.data(), per_category_.size());
    for (const auto block : retained()) w.pod_span(block.data(), block.size());
  }

  /// Restores a snapshot_state() stream: the retained records go back into
  /// slots [next - size, next) mod capacity. Storage is reallocated only when
  /// the capacity changed or the ring needs storage it does not have; slots
  /// outside the retained window may keep stale records, which snapshot()
  /// never reads. A record whose point or category is out of range throws
  /// std::logic_error, like a cursor out of range.
  void restore_state(sim::StateReader& r) {
    const std::size_t capacity = r.u64();
    const bool enabled = r.boolean();
    const std::size_t next = r.u64();
    const std::size_t count = r.u64();
    if (capacity == 0 || count > capacity || next >= capacity) {
      throw std::logic_error(
          "Hypervisor::restore: trace ring cursor or count out of range");
    }
    if (capacity != capacity_) {
      capacity_ = capacity;
      buffer_.clear();
      buffer_.shrink_to_fit();
    }
    enabled_ = enabled;
    next_ = next;
    count_ = count;
    emitted_ = r.u64();
    dropped_ = r.u64();
    r.pod_span(per_category_.data(), per_category_.size());
    if ((enabled_ || count_ > 0) && buffer_.size() != capacity_) buffer_.resize(capacity_);
    const std::size_t start = oldest_slot();
    const std::size_t head = std::min(count_, capacity_ - start);
    r.pod_span(buffer_.data() + start, head);
    r.pod_span(buffer_.data(), count_ - head);
    for (const auto block : retained()) {
      for (const TraceEvent& e : block) {
        if (e.point >= TracePoint::kCount_ || e.category >= TraceCategory::kCount_) {
          throw std::logic_error(
              "Hypervisor::restore: trace record point or category out of range");
        }
      }
    }
  }

 private:
  [[nodiscard]] std::size_t oldest_slot() const {
    return (next_ + capacity_ - count_) % capacity_;
  }

  void reset_counters() {
    next_ = 0;
    count_ = 0;
    emitted_ = 0;
    dropped_ = 0;
    per_category_.fill(0);
  }

  std::size_t capacity_;
  // lint: transient(checkpoints serialize only the retained window, not every slot)
  std::vector<TraceEvent> buffer_;  // empty until first enable
  std::size_t next_ = 0;            // write position
  std::size_t count_ = 0;           // retained events
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(TraceCategory::kCount_)>
      per_category_{};
  bool enabled_ = false;
};

}  // namespace rthv::obs

/// Hot-path emit: one predictable branch when disabled; the argument
/// expressions after `ring` are not evaluated unless tracing is on, so
/// instrumentation can reference arbitrarily expensive payloads for free.
#define RTHV_TRACE(ring, ...)                      \
  do {                                             \
    if ((ring).enabled()) (ring).emit(__VA_ARGS__); \
  } while (0)
