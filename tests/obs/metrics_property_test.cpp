// Property tests for the observability layer's determinism contracts:
//  * TraceRing wraparound keeps exactly the newest `capacity` events and
//    accounts every overwritten one (dropped == emitted - size);
//  * RTHV_TRACE does not evaluate its arguments while disabled (the
//    zero-observer-effect guarantee rests on this);
//  * a TraceRing checkpoint (snapshot_state/restore_state) restores every
//    observable of the ring whatever was emitted after it, at any fill level
//    and across capacity changes, and costs a fixed header plus 5 words per
//    retained record;
//  * merging per-shard MetricsSnapshots in shard order is bit-identical to
//    observing the same sample stream in one registry, for any shard split
//    (the BatchRunner jobs-independence contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "sim/state_io.hpp"

namespace rthv::obs {
namespace {

TEST(TraceRingTest, DisabledRingIsFreeAndEmpty) {
  TraceRing ring(8);
  EXPECT_FALSE(ring.enabled());
  ring.emit(1, TracePoint::kIrqPush, TraceCategory::kIrq);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, MacroSkipsArgumentEvaluationWhileDisabled) {
  TraceRing ring(8);
  int evaluations = 0;
  const auto expensive = [&evaluations] {
    ++evaluations;
    return std::int64_t{42};
  };
  RTHV_TRACE(ring, expensive(), TracePoint::kIrqPush, TraceCategory::kIrq);
  EXPECT_EQ(evaluations, 0) << "disabled tracing must not evaluate arguments";
  ring.set_enabled(true);
  RTHV_TRACE(ring, expensive(), TracePoint::kIrqPush, TraceCategory::kIrq);
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(ring.snapshot().at(0).time_ns, 42);
}

TEST(TraceRingTest, WraparoundKeepsNewestAndCountsDrops) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::int64_t kEmitted = 20;
  TraceRing ring(kCapacity);
  ring.set_enabled(true);
  for (std::int64_t t = 0; t < kEmitted; ++t) {
    ring.emit(t, TracePoint::kIrqPush, TraceCategory::kIrq, 0, 0,
              static_cast<std::uint64_t>(t));
  }
  EXPECT_EQ(ring.size(), kCapacity);
  EXPECT_EQ(ring.emitted(), static_cast<std::uint64_t>(kEmitted));
  EXPECT_EQ(ring.dropped(), ring.emitted() - ring.size());
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(events[i].time_ns, kEmitted - static_cast<std::int64_t>(kCapacity - i))
        << "snapshot must hold the newest events, oldest first";
  }
  EXPECT_EQ(ring.category_count(TraceCategory::kIrq),
            static_cast<std::uint64_t>(kEmitted))
      << "category counters survive wraparound";
}

TEST(TraceRingTest, DropInvariantHoldsAtEveryStep) {
  std::mt19937_64 rng(7);
  for (const std::size_t capacity : {1u, 2u, 5u, 16u}) {
    TraceRing ring(capacity);
    ring.set_enabled(true);
    const std::uint64_t n = 3 * capacity + rng() % 10;
    for (std::uint64_t t = 0; t < n; ++t) {
      ring.emit(static_cast<std::int64_t>(t), TracePoint::kLegacy,
                TraceCategory::kOther);
      ASSERT_EQ(ring.dropped(), ring.emitted() - ring.size());
    }
  }
}

TEST(TraceRingTest, ClearKeepsEnabledAndCapacity) {
  TraceRing ring(4);
  ring.set_enabled(true);
  ring.emit(1, TracePoint::kLegacy, TraceCategory::kOther);
  ring.clear();
  EXPECT_TRUE(ring.enabled());
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_EQ(ring.category_count(TraceCategory::kOther), 0u);
}

TEST(TraceRingTest, CountsEachCategorySeparately) {
  TraceRing ring(8);
  ring.set_enabled(true);
  ring.emit(0, TracePoint::kMonitorAdmit, TraceCategory::kMonitor);
  ring.emit(0, TracePoint::kMonitorDeny, TraceCategory::kMonitor);
  ring.emit(0, TracePoint::kLegacy, TraceCategory::kGuest);
  EXPECT_EQ(ring.category_count(TraceCategory::kMonitor), 2u);
  EXPECT_EQ(ring.category_count(TraceCategory::kGuest), 1u);
  EXPECT_EQ(ring.category_count(TraceCategory::kIrq), 0u);
}

TEST(TraceRingTest, CategoryNamesAreDistinct) {
  EXPECT_EQ(to_string(TraceCategory::kIrq), "irq");
  EXPECT_EQ(to_string(TraceCategory::kInterpose), "interpose");
  EXPECT_NE(to_string(TraceCategory::kTopHandler), to_string(TraceCategory::kBottom));
}

// --- trace ring checkpoints -------------------------------------------------

constexpr std::size_t kCategories = static_cast<std::size_t>(TraceCategory::kCount_);
// capacity, enabled, next, count, emitted, dropped + one word per category.
constexpr std::size_t kRingHeaderWords = 6 + kCategories;
constexpr std::size_t kWordsPerRecord = sizeof(TraceEvent) / 8;

/// Every observable of a ring, compared field by field.
struct RingView {
  std::vector<TraceEvent> events;
  std::size_t size = 0;
  std::uint64_t emitted = 0;
  std::uint64_t dropped = 0;
  std::vector<std::uint64_t> per_category;

  explicit RingView(const TraceRing& ring)
      : events(ring.snapshot()),
        size(ring.size()),
        emitted(ring.emitted()),
        dropped(ring.dropped()) {
    for (std::size_t c = 0; c < kCategories; ++c) {
      per_category.push_back(ring.category_count(static_cast<TraceCategory>(c)));
    }
  }

  bool operator==(const RingView& o) const {
    return size == o.size && emitted == o.emitted && dropped == o.dropped &&
           per_category == o.per_category && events.size() == o.events.size() &&
           (events.empty() ||
            std::memcmp(events.data(), o.events.data(),
                        events.size() * sizeof(TraceEvent)) == 0);
  }
};

std::vector<std::uint64_t> checkpoint(const TraceRing& ring) {
  sim::StateWriter w;
  ring.snapshot_state(w);
  return w.take();
}

void restore(TraceRing& ring, const std::vector<std::uint64_t>& words) {
  sim::StateReader r(words);
  ring.restore_state(r);
  ASSERT_TRUE(r.exhausted()) << "restore_state left words unread";
}

/// Emits events [first, first + n): event i has a distinct time, point,
/// category and payload, so any misplaced slot shows up in the comparison.
void emit_range(TraceRing& ring, std::uint64_t first, std::size_t n) {
  const auto point = [](std::uint64_t i) {
    return static_cast<TracePoint>(i % static_cast<std::uint64_t>(TracePoint::kCount_));
  };
  const auto category = [](std::uint64_t i) {
    return static_cast<TraceCategory>(i % kCategories);
  };
  for (std::uint64_t i = first; i < first + n; ++i) {
    ring.emit(static_cast<std::int64_t>(i), point(i), category(i),
              static_cast<std::uint32_t>(i), 0, i * 7, ~i);
  }
}

TEST(TraceRingCheckpointTest, RoundTripAtEveryFillLevel) {
  for (const std::size_t capacity : {1u, 4u, 64u}) {
    // Partly full (empty for capacity 1), exactly full, wrapped.
    for (const std::size_t fill : {capacity / 2, capacity, 2 * capacity + 1}) {
      const std::size_t count = std::min(fill, capacity);
      for (const std::size_t k : {std::size_t{0}, std::size_t{1}, capacity - count,
                                  capacity + 3}) {
        SCOPED_TRACE(testing::Message() << "capacity=" << capacity << " fill=" << fill
                                        << " k=" << k);
        TraceRing ring(capacity);
        ring.set_enabled(true);
        emit_range(ring, 0, fill);
        const RingView at_checkpoint(ring);
        const auto words = checkpoint(ring);
        EXPECT_EQ(words.size(), kRingHeaderWords + kWordsPerRecord * count);

        emit_range(ring, fill, k);
        restore(ring, words);
        EXPECT_TRUE(RingView(ring) == at_checkpoint);
        EXPECT_TRUE(ring.enabled());
        EXPECT_EQ(ring.capacity(), capacity);

        // Re-emitting the same events must land exactly where an
        // uninterrupted ring puts them.
        emit_range(ring, fill, k);
        TraceRing straight(capacity);
        straight.set_enabled(true);
        emit_range(straight, 0, fill + k);
        EXPECT_TRUE(RingView(ring) == RingView(straight));
        EXPECT_EQ(checkpoint(ring), checkpoint(straight));
      }
    }
  }
}

TEST(TraceRingCheckpointTest, DisabledRingKeepsItsEventsAcrossRestore) {
  TraceRing ring(8);
  ring.set_enabled(true);
  emit_range(ring, 0, 5);
  ring.set_enabled(false);
  const RingView at_checkpoint(ring);
  const auto words = checkpoint(ring);

  ring.set_enabled(true);
  emit_range(ring, 5, 11);
  restore(ring, words);
  EXPECT_FALSE(ring.enabled());
  EXPECT_TRUE(RingView(ring) == at_checkpoint);
  ring.emit(99, TracePoint::kLegacy, TraceCategory::kOther);
  EXPECT_TRUE(RingView(ring) == at_checkpoint) << "restored ring must stay off";

  // A ring that never allocated storage (disabled, other capacity) takes the
  // same checkpoint and can read the events back.
  TraceRing fresh(2);
  restore(fresh, words);
  EXPECT_FALSE(fresh.enabled());
  EXPECT_EQ(fresh.capacity(), 8u);
  EXPECT_TRUE(RingView(fresh) == at_checkpoint);
}

TEST(TraceRingCheckpointTest, SetCapacityBetweenSnapshotAndRestore) {
  TraceRing ring(4);
  ring.set_enabled(true);
  emit_range(ring, 0, 6);
  const RingView small(ring);
  const auto small_words = checkpoint(ring);

  ring.set_capacity(64);
  emit_range(ring, 6, 10);
  const RingView large(ring);
  const auto large_words = checkpoint(ring);

  restore(ring, small_words);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_TRUE(RingView(ring) == small);
  emit_range(ring, 6, 3);
  TraceRing straight(4);
  straight.set_enabled(true);
  emit_range(straight, 0, 9);
  EXPECT_TRUE(RingView(ring) == RingView(straight));

  ring.set_capacity(2);
  restore(ring, large_words);
  EXPECT_EQ(ring.capacity(), 64u);
  EXPECT_TRUE(RingView(ring) == large);
}

TEST(TraceRingCheckpointTest, SizeIsHeaderPlusFiveWordsPerRetainedRecord) {
  static_assert(kWordsPerRecord == 5);
  // An empty ring costs the header whatever its capacity.
  for (const std::size_t capacity : {std::size_t{1}, TraceRing::kDefaultCapacity}) {
    TraceRing ring(capacity);
    EXPECT_EQ(checkpoint(ring).size(), kRingHeaderWords);
    ring.set_enabled(true);
    EXPECT_EQ(checkpoint(ring).size(), kRingHeaderWords);
    emit_range(ring, 0, 100);
    EXPECT_EQ(checkpoint(ring).size(),
              kRingHeaderWords + kWordsPerRecord * std::min<std::size_t>(100, capacity));
  }
}

TEST(TraceRingCheckpointTest, MalformedStreamThrows) {
  TraceRing ring(4);
  ring.set_enabled(true);
  emit_range(ring, 0, 3);
  const auto words = checkpoint(ring);
  const auto expect_rejected = [&](std::size_t index, std::uint64_t value) {
    auto bad = words;
    bad[index] = value;
    TraceRing target(4);
    try {
      sim::StateReader r(bad);
      target.restore_state(r);
      ADD_FAILURE() << "word " << index << " = " << value << " was accepted";
    } catch (const std::logic_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("Hypervisor::restore: ", 0), 0u) << e.what();
    }
  };
  expect_rejected(0, 0);  // capacity 0
  expect_rejected(3, 5);  // count > capacity
  expect_rejected(2, 4);  // cursor past the last slot
}

// --- trace log --------------------------------------------------------------
// The hypervisor's trace log is a default-capacity TraceRing (see
// hv::Hypervisor::trace_ring()). These cases pin the log-level contract:
// off by default, records kept in emission order, clear() keeps it on, and
// the offline text form carries category tags and times.

TEST(TraceLogTest, DisabledByDefaultAndDropsRecords) {
  TraceRing log;
  EXPECT_FALSE(log.enabled());
  log.emit(1000, TracePoint::kLegacy, TraceCategory::kIrq);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.emitted(), 0u);
}

TEST(TraceLogTest, EnabledRecordsInOrder) {
  TraceRing log;
  log.set_enabled(true);
  log.emit(1000, TracePoint::kLegacy, TraceCategory::kIrq);
  log.emit(2000, TracePoint::kLegacy, TraceCategory::kBottom);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time_ns, 1000);
  EXPECT_EQ(events[0].category, TraceCategory::kIrq);
  EXPECT_EQ(events[1].category, TraceCategory::kBottom);
  EXPECT_EQ(events[1].point, TracePoint::kLegacy);
}

TEST(TraceLogTest, RenderContainsCategoryAndTime) {
  TraceRing log;
  log.set_enabled(true);
  log.emit(5000, TracePoint::kLegacy, TraceCategory::kScheduler);
  const auto text = render_text(log.snapshot());
  EXPECT_NE(text.find("[sched]"), std::string::npos);
  EXPECT_NE(text.find("t=5000"), std::string::npos);
}

TEST(TraceLogTest, ClearEmptiesRecords) {
  TraceRing log;
  log.set_enabled(true);
  log.emit(0, TracePoint::kLegacy, TraceCategory::kOther);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.enabled()) << "clear() keeps the log enabled";
}

// --- metrics ----------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStableAndO1) {
  MetricsRegistry reg;
  const auto c1 = reg.counter("a");
  const auto c2 = reg.counter("a");
  EXPECT_EQ(c1.index, c2.index) << "re-registration returns the same handle";
  reg.add(c1, 3);
  reg.add(c2);
  EXPECT_EQ(reg.value(c1), 4u);

  const auto h1 = reg.histogram("h", 0, 100, 10);
  const auto h2 = reg.histogram("h", 0, 100, 10);
  EXPECT_EQ(h1.index, h2.index);
  EXPECT_THROW((void)reg.histogram("h", 0, 200, 10), std::invalid_argument)
      << "rebinning an existing histogram must throw";
}

TEST(MetricsSnapshotTest, HistogramObserveBinsCorrectly) {
  MetricsRegistry reg;
  const auto h = reg.histogram("lat", 100, 50, 4);  // [100,150) ... [250,300)
  reg.observe(h, 99);    // underflow
  reg.observe(h, 100);   // bucket 0
  reg.observe(h, 149);   // bucket 0
  reg.observe(h, 250);   // bucket 3
  reg.observe(h, 300);   // overflow
  reg.observe(h, 5000);  // overflow
  const auto snap = reg.snapshot();
  const auto* hist = snap.find_histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->underflow, 1u);
  EXPECT_EQ(hist->overflow, 2u);
  EXPECT_EQ(hist->buckets[0], 2u);
  EXPECT_EQ(hist->buckets[1], 0u);
  EXPECT_EQ(hist->buckets[3], 1u);
  EXPECT_EQ(hist->count, 6u);
  EXPECT_EQ(hist->min_ns, 99);
  EXPECT_EQ(hist->max_ns, 5000);
  EXPECT_EQ(hist->sum_ns, 99 + 100 + 149 + 250 + 300 + 5000);
}

TEST(MetricsSnapshotTest, MergeRejectsBinningMismatch) {
  MetricsRegistry a;
  MetricsRegistry b;
  (void)a.histogram("h", 0, 100, 10);
  (void)b.histogram("h", 0, 100, 11);
  auto snap = a.snapshot();
  EXPECT_THROW(snap.merge(b.snapshot()), std::invalid_argument);
}

TEST(MetricsSnapshotTest, GaugeMergeIsLastWriteWins) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.set(a.gauge("g"), 1);
  b.set(b.gauge("g"), 2);
  auto snap = a.snapshot();
  snap.merge(b.snapshot());
  const auto* g = snap.find_gauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 2);
}

std::string to_json(const MetricsSnapshot& snap) {
  std::ostringstream os;
  snap.write_json(os);
  return os.str();
}

// Observe `samples` into a fresh registry (one counter + one histogram).
MetricsSnapshot observe_all(const std::vector<std::int64_t>& samples) {
  MetricsRegistry reg;
  const auto c = reg.counter("events");
  const auto h = reg.histogram("latency", 0, 1000, 32);
  for (const std::int64_t s : samples) {
    reg.add(c);
    reg.observe(h, s);
  }
  return reg.snapshot();
}

TEST(MetricsSnapshotTest, ShardedMergeEqualsSingleShardForAnySplit) {
  std::mt19937_64 rng(2014);
  std::uniform_int_distribution<std::int64_t> sample(-500, 40'000);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng() % 200;
    std::vector<std::int64_t> samples(n);
    for (auto& s : samples) s = sample(rng);
    const std::string expected = to_json(observe_all(samples));

    // Split the stream at random boundaries into 1..8 ordered shards.
    const std::size_t shards = 1 + rng() % 8;
    std::vector<std::size_t> cuts{0, n};
    for (std::size_t i = 1; i < shards; ++i) cuts.push_back(rng() % (n + 1));
    std::sort(cuts.begin(), cuts.end());

    MetricsSnapshot merged;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const std::vector<std::int64_t> shard(
          samples.begin() + static_cast<std::ptrdiff_t>(cuts[i]),
          samples.begin() + static_cast<std::ptrdiff_t>(cuts[i + 1]));
      merged.merge(observe_all(shard));
    }
    ASSERT_EQ(to_json(merged), expected)
        << "trial " << trial << ": merged shards must serialize bit-identically";
  }
}

TEST(MetricsSnapshotTest, TextAndJsonDumpsAreDeterministic) {
  MetricsRegistry reg;
  reg.add(reg.counter("z.last"), 1);
  reg.add(reg.counter("a.first"), 2);
  reg.set(reg.gauge("now"), -5);
  reg.observe(reg.histogram("h", 0, 10, 2), 3);
  const auto snap = reg.snapshot();
  const std::string json = to_json(snap);
  EXPECT_EQ(json, to_json(snap));
  EXPECT_NE(json.find("\"schema\": \"rthv-metrics-v1\""), std::string::npos);
  // Insertion order, not alphabetical: z.last registered first.
  EXPECT_LT(json.find("z.last"), json.find("a.first"));
  std::ostringstream text;
  snap.write_text(text);
  EXPECT_NE(text.str().find("a.first 2"), std::string::npos);
}

}  // namespace
}  // namespace rthv::obs
