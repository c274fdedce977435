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
//    observing the same sample stream in one snapshot, for any shard split
//    (the BatchRunner jobs-independence contract);
//  * the positional merge equals the by-name fold on snapshots whose entries
//    are permuted, missing or extra;
//  * every name a single-core, multi-core or fault-armed system emits is in
//    the metric catalog, and the catalog's enum tables spell their enums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "core/multicore_system.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "hv/health.hpp"
#include "obs/exporters.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "sim/state_io.hpp"
#include "stats/latency_recorder.hpp"
#include "workload/generators.hpp"

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

TEST(MetricsSnapshotTest, HistogramObserveBinsCorrectly) {
  MetricsSnapshot snap;
  auto& h = snap.add_histogram("lat", 100, 50, 4);  // [100,150) ... [250,300)
  h.observe(99);    // underflow
  h.observe(100);   // bucket 0
  h.observe(149);   // bucket 0
  h.observe(250);   // bucket 3
  h.observe(300);   // overflow
  h.observe(5000);  // overflow
  EXPECT_THROW((void)snap.add_histogram("bad", 0, 0, 4), std::invalid_argument);
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
  MetricsSnapshot a;
  MetricsSnapshot b;
  (void)a.add_histogram("h", 0, 100, 10);
  (void)b.add_histogram("h", 0, 100, 11);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(MetricsSnapshotTest, GaugeMergeIsLastWriteWins) {
  MetricsSnapshot snap;
  MetricsSnapshot b;
  snap.set_gauge("g", 1);
  b.set_gauge("g", 2);
  snap.merge(b);
  const auto* g = snap.find_gauge("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 2);
}

std::string to_json(const MetricsSnapshot& snap) {
  std::ostringstream os;
  snap.write_json(os);
  return os.str();
}

// Observe `samples` into a fresh snapshot (one counter + one histogram).
MetricsSnapshot observe_all(const std::vector<std::int64_t>& samples) {
  MetricsSnapshot snap;
  snap.add_counter("events", samples.size());
  auto& h = snap.add_histogram("latency", 0, 1000, 32);
  for (const std::int64_t s : samples) h.observe(s);
  return snap;
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
  MetricsSnapshot snap;
  snap.add_counter("z.last", 1);
  snap.add_counter("a.first", 2);
  snap.set_gauge("now", -5);
  snap.add_histogram("h", 0, 10, 2).observe(3);
  const std::string json = to_json(snap);
  EXPECT_EQ(json, to_json(snap));
  EXPECT_NE(json.find("\"schema\": \"rthv-metrics-v1\""), std::string::npos);
  // Insertion order, not alphabetical: z.last added first.
  EXPECT_LT(json.find("z.last"), json.find("a.first"));
  std::ostringstream text;
  snap.write_text(text);
  EXPECT_NE(text.str().find("a.first 2"), std::string::npos);
}

// --- positional merge ---------------------------------------------------------

// The by-name fold metrics.hpp specifies, written without positions: every
// entry of `other` is looked up by name in `into` and appended when new.
void merge_by_name(MetricsSnapshot& into, const MetricsSnapshot& other) {
  for (const auto& c : other.counters) into.add_counter(c.name, c.value);
  for (const auto& g : other.gauges) into.set_gauge(g.name, g.value);
  for (const auto& h : other.histograms) {
    const auto it = std::find_if(into.histograms.begin(), into.histograms.end(),
                                 [&h](const auto& e) { return e.name == h.name; });
    if (it == into.histograms.end()) {
      into.histograms.push_back(h);
      continue;
    }
    for (std::size_t b = 0; b < it->buckets.size(); ++b) it->buckets.add(b, h.buckets[b]);
    it->underflow += h.underflow;
    it->overflow += h.overflow;
    it->sum_ns += h.sum_ns;
    if (h.count > 0) {
      it->min_ns = it->count > 0 ? std::min(it->min_ns, h.min_ns) : h.min_ns;
      it->max_ns = it->count > 0 ? std::max(it->max_ns, h.max_ns) : h.max_ns;
    }
    it->count += h.count;
  }
}

// Names of static storage, as the catalog's are: a base order every
// snapshot may follow, plus extras only some snapshots carry.
constexpr std::string_view kBaseNames[] = {"a.one", "a.two", "b/three", "b/four",
                                           "c.five", "c.six", "d/seven", "d/eight"};
constexpr std::string_view kExtraNames[] = {"x.extra", "y/extra", "z.extra"};

// One list of names: the base order or a shuffle of it, each name dropped
// with probability 1/5, and with probability 1/3 an extra inserted anywhere.
std::vector<std::string_view> random_names(std::mt19937_64& rng) {
  std::vector<std::string_view> names;
  for (const auto n : kBaseNames) {
    if (rng() % 5 != 0) names.push_back(n);
  }
  if (rng() % 2 == 0) std::shuffle(names.begin(), names.end(), rng);
  if (rng() % 3 == 0) {
    const auto at = static_cast<std::ptrdiff_t>(rng() % (names.size() + 1));
    names.insert(names.begin() + at, kExtraNames[rng() % std::size(kExtraNames)]);
  }
  return names;
}

MetricsSnapshot random_snapshot(std::mt19937_64& rng) {
  MetricsSnapshot snap;
  for (const auto n : random_names(rng)) snap.counters.push_back({n, rng() % 1000});
  for (const auto n : random_names(rng)) {
    snap.gauges.push_back({n, static_cast<std::int64_t>(rng() % 2001) - 1000});
  }
  for (const auto n : random_names(rng)) {
    auto& h = snap.add_histogram(n, 0, 100, 8);
    const std::size_t samples = rng() % 4;  // empty histograms included
    for (std::size_t i = 0; i < samples; ++i) {
      h.observe(static_cast<std::int64_t>(rng() % 1000) - 50);
    }
  }
  return snap;
}

TEST(MetricsSnapshotTest, PositionalMergeEqualsByNameFold) {
  std::mt19937_64 rng(24);
  for (int trial = 0; trial < 500; ++trial) {
    MetricsSnapshot positional = trial % 4 == 0 ? MetricsSnapshot{} : random_snapshot(rng);
    MetricsSnapshot by_name = positional;
    const std::size_t merges = 1 + rng() % 5;
    for (std::size_t m = 0; m < merges; ++m) {
      const MetricsSnapshot other = random_snapshot(rng);
      positional.merge(other);
      merge_by_name(by_name, other);
    }
    ASSERT_EQ(to_json(positional), to_json(by_name)) << "trial " << trial;
  }
}

// A snapshot keeps only views of its names, so the named adders refuse a
// std::string, whose characters would die with it.
template <typename Name>
concept CounterTakes = requires(MetricsSnapshot& s, Name&& n) {
  s.add_counter(std::forward<Name>(n), std::uint64_t{1});
};
template <typename Name>
concept GaugeTakes = requires(MetricsSnapshot& s, Name&& n) {
  s.set_gauge(std::forward<Name>(n), std::int64_t{1});
};
template <typename Name>
concept HistogramTakes = requires(MetricsSnapshot& s, Name&& n) {
  s.add_histogram(std::forward<Name>(n), 0, 1, 1);
};
template <typename Name>
constexpr bool kEveryAdderTakes = CounterTakes<Name> && GaugeTakes<Name> && HistogramTakes<Name>;
template <typename Name>
constexpr bool kNoAdderTakes = !CounterTakes<Name> && !GaugeTakes<Name> && !HistogramTakes<Name>;
static_assert(kEveryAdderTakes<const char (&)[4]>);
static_assert(kEveryAdderTakes<std::string_view>);
static_assert(kNoAdderTakes<std::string>);
static_assert(kNoAdderTakes<std::string&>);
static_assert(kNoAdderTakes<const std::string&>);

TEST(MetricsSnapshotTest, InternedNamesAreSharedAndStable) {
  const std::string built = std::string("irq_queue/dropped/") + "intern-test";
  const std::string_view first = intern_name(built);
  const std::string_view again = intern_name("irq_queue/dropped/intern-test");
  EXPECT_EQ(first, built);
  EXPECT_EQ(first.data(), again.data()) << "equal names share one copy";
  for (int i = 0; i < 100; ++i) (void)intern_name("filler-" + std::to_string(i));
  EXPECT_EQ(first, "irq_queue/dropped/intern-test") << "interned characters never move";
}

// --- metric catalog -------------------------------------------------------------

TEST(MetricCatalogTest, UnitOfMatchesEntriesAndFamiliesOnly) {
  EXPECT_EQ(catalog::unit_of("irq.latency.all"), "ns");
  EXPECT_EQ(catalog::unit_of("irq_queue/dropped/any-partition"), "irqs");
  EXPECT_EQ(catalog::unit_of("invariant/violations/some/contract"), "violations");
  EXPECT_EQ(catalog::unit_of("core12/ctx.tdma"), "switches");
  EXPECT_EQ(catalog::unit_of("irq.completed.direct"), "irqs");
  EXPECT_EQ(catalog::unit_of("core0/irq.latency.interposed"), "ns");
  for (const std::string_view bad :
       {"bogus", "irq_queue/dropped/", "irq.completed.", "core/ctx.tdma", "corex/ctx.tdma",
        "core1/bogus", "core1ctx.tdma"}) {
    EXPECT_FALSE(catalog::unit_of(bad).has_value()) << bad;
  }
}

// Every name of `snap` is catalogued; returns the number of names checked.
std::size_t expect_catalogued(const MetricsSnapshot& snap) {
  std::size_t names = 0;
  const auto check = [&names](std::string_view name) {
    ++names;
    EXPECT_TRUE(catalog::unit_of(name).has_value()) << "uncatalogued metric '" << name << "'";
  };
  for (const auto& c : snap.counters) check(c.name);
  for (const auto& g : snap.gauges) check(g.name);
  for (const auto& h : snap.histograms) check(h.name);
  return names;
}

bool has_counter(const MetricsSnapshot& snap, std::string_view name) {
  return snap.find_counter(name) != nullptr;
}

TEST(MetricCatalogTest, SingleCoreSnapshotNamesAreCatalogued) {
  core::HypervisorSystem system(core::SystemConfig::paper_baseline());
  system.attach_trace(0, workload::ExponentialTraceGenerator(sim::Duration::us(444), 3)
                             .generate(50));
  system.run(sim::Duration::s(1));
  const auto snap = system.metrics_snapshot();
  EXPECT_GT(expect_catalogued(snap), 30u);
  EXPECT_TRUE(has_counter(snap, "irq_queue/dropped/housekeeping"));
  // The enum families carry one name per enumerator, spelled by to_string.
  for (std::size_t c = 0; c < static_cast<std::size_t>(stats::HandlingClass::kCount_); ++c) {
    const std::string cls(stats::to_string(static_cast<stats::HandlingClass>(c)));
    EXPECT_TRUE(has_counter(snap, "irq.completed." + cls)) << cls;
    EXPECT_NE(snap.find_histogram("irq.latency." + cls), nullptr) << cls;
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(hv::HealthEventKind::kCount_); ++k) {
    const std::string kind(hv::to_string(static_cast<hv::HealthEventKind>(k)));
    EXPECT_TRUE(has_counter(snap, "health." + kind)) << kind;
  }
}

TEST(MetricCatalogTest, FaultArmedSnapshotNamesAreCatalogued) {
  core::HypervisorSystem system(
      core::load_config_file(std::string(RTHV_CONFIG_DIR) + "/paper_baseline.ini"));
  const auto plan =
      fault::load_fault_plan_file(std::string(RTHV_CONFIG_DIR) + "/fault_campaign.plan");
  fault::FaultEngine engine(system, plan, 7);
  engine.arm();
  system.run(sim::Duration::ms(50));
  const auto snap = system.metrics_snapshot();
  expect_catalogued(snap);
  EXPECT_TRUE(has_counter(snap, "fault/injected/storm"));
}

TEST(MetricCatalogTest, MulticoreSnapshotNamesAreCatalogued) {
  core::MulticoreSystem mc(
      core::load_config_file(std::string(RTHV_CONFIG_DIR) + "/multicore_mixed_crit.ini"));
  mc.attach_trace(0, workload::ExponentialTraceGenerator(sim::Duration::us(500), 5)
                         .generate(40));
  mc.run(sim::Duration::ms(100));
  const auto before = mc.metrics_snapshot();
  expect_catalogued(before);
  EXPECT_TRUE(has_counter(before, "core0/irq.completed"));
  EXPECT_TRUE(has_counter(before, "interconnect/routes"));

  // A checkpoint client attached after construction adds names to its
  // core's snapshot; they and the names after them keep the core's prefix.
  fault::FaultPlan plan;
  fault::InjectionSpec storm;
  storm.kind = fault::FaultKind::kStorm;
  storm.count = 2;
  storm.distance = sim::Duration::us(10);
  storm.period = sim::Duration::ms(1);
  storm.burst_len = 3;
  plan.injections.push_back(storm);
  fault::FaultEngine engine(mc.core(0), plan, 1);
  engine.arm();
  const auto after = mc.metrics_snapshot();
  expect_catalogued(after);
  EXPECT_TRUE(has_counter(after, "core0/fault/injected/storm"));
  EXPECT_TRUE(has_counter(after, "core0/sim.executed_events"))
      << "names after the client's keep their prefix";
  EXPECT_EQ(after.counters.size(), before.counters.size() + 1);
}

}  // namespace
}  // namespace rthv::obs
