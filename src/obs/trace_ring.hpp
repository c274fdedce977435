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
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace_event.hpp"

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
  /// directly on a disabled ring is a safe no-op.
  void emit(const TraceEvent& event) {
    if (!enabled_) return;
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

  /// Batched ring-slot reservation for burst emission sites (e.g. the
  /// hypervisor's fused batch-exit records: up to three events per latched
  /// IRQ). One enabled check when the emitter is created and one counter
  /// write-back when it commits replace the per-event bookkeeping of
  /// emit(): events are constructed in place in ring storage and the
  /// emitted/retained/dropped accounting is settled once for the whole
  /// burst. An emitter created on a disabled ring is inert (emit() is a
  /// cheap no-op), so call sites need no separate guard.
  ///
  /// At most one emitter may be live at a time, and emit()/snapshot()/
  /// clear() must not be called on the ring until it commits (destructor
  /// or commit()).
  class BatchEmitter {
   public:
    explicit BatchEmitter(TraceRing& ring) : ring_(ring.enabled_ ? &ring : nullptr) {
      if (ring_ != nullptr) next_ = ring_->next_;
    }
    BatchEmitter(const BatchEmitter&) = delete;
    BatchEmitter& operator=(const BatchEmitter&) = delete;
    ~BatchEmitter() { commit(); }

    [[nodiscard]] bool active() const { return ring_ != nullptr; }

    void emit(std::int64_t time_ns, TracePoint point, TraceCategory category,
              std::uint32_t partition = kNoId, std::uint32_t source = kNoId,
              std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
      if (ring_ == nullptr) return;
      TraceEvent& e = ring_->buffer_[next_];
      e.time_ns = time_ns;
      e.point = point;
      e.category = category;
      e.partition = partition;
      e.source = source;
      e.arg0 = arg0;
      e.arg1 = arg1;
      ++ring_->per_category_[static_cast<std::size_t>(category)];
      next_ = next_ + 1 == ring_->capacity_ ? 0 : next_ + 1;
      ++emitted_;
    }

    /// Settles the ring counters; the emitter is inert afterwards.
    void commit() {
      if (ring_ == nullptr) return;
      ring_->next_ = next_;
      ring_->emitted_ += emitted_;
      const std::size_t total = ring_->count_ + emitted_;
      const std::size_t retained = total < ring_->capacity_ ? total : ring_->capacity_;
      ring_->dropped_ += total - retained;  // events overwritten by this burst
      ring_->count_ = retained;
      ring_ = nullptr;
    }

   private:
    TraceRing* ring_;
    std::size_t next_ = 0;
    std::size_t emitted_ = 0;
  };

  /// Copies the retained events out, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(count_);
    const std::size_t start = (next_ + capacity_ - count_) % capacity_;
    for (std::size_t i = 0; i < count_; ++i) {
      out.push_back(buffer_[(start + i) % capacity_]);
    }
    return out;
  }

  /// Drops all events and zeroes every counter; keeps capacity, allocation
  /// and the enabled flag.
  void clear() { reset_counters(); }

 private:
  void reset_counters() {
    next_ = 0;
    count_ = 0;
    emitted_ = 0;
    dropped_ = 0;
    per_category_.fill(0);
  }

  std::size_t capacity_;
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
