// Differential test of obs::CoverageMap::mark_points, the fired-table walk
// that feeds regions A and B of a hunt evaluation, against the per-record
// reference (one mark_point call per record), compared by to_hex():
//  * every TracePoint with sources 0..20 and kNoId, one record at a time and
//    all together;
//  * seeded random streams, the empty span included, marked whole or split
//    at a random record into two spans;
//  * a TraceRing that has wrapped: marking its two retained() blocks equals
//    marking its snapshot();
//  * records whose point byte is past TracePoint::kCount_ (25, 255) set no
//    bit, on their own or mixed into a valid stream.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "obs/coverage.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"

namespace rthv::obs {
namespace {

constexpr auto kPoints = static_cast<std::uint32_t>(TracePoint::kCount_);

TraceEvent record(std::uint32_t point, std::uint32_t source) {
  TraceEvent e;
  e.point = static_cast<TracePoint>(point);
  e.source = source;
  return e;
}

CoverageMap per_record(std::span<const TraceEvent> events) {
  CoverageMap map;
  for (const TraceEvent& e : events) map.mark_point(e.point, e.source);
  return map;
}

CoverageMap table_driven(std::span<const TraceEvent> events) {
  CoverageMap map;
  map.mark_points(events);
  return map;
}

/// Sources 0..20 (the first 16 reach region B), kNoId, and now and then an
/// arbitrary large id.
std::uint32_t random_source(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return kNoId;
    case 1:
      return static_cast<std::uint32_t>(rng());
    default:
      return static_cast<std::uint32_t>(rng() % 21);
  }
}

std::vector<TraceEvent> random_stream(std::mt19937_64& rng, std::size_t n) {
  std::vector<TraceEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(record(static_cast<std::uint32_t>(rng() % kPoints),
                            random_source(rng)));
  }
  return events;
}

TEST(CoverageMapTest, MarkPointSetsTheDocumentedBits) {
  CoverageMap low;
  low.mark_point(TracePoint::kIrqPush, 3);
  EXPECT_EQ(low.count(), 2u);
  EXPECT_TRUE(low.test(CoverageMap::kRegionA + 13));
  EXPECT_TRUE(low.test(CoverageMap::kRegionB + 3 * CoverageMap::kPointBits + 13));

  CoverageMap high;
  high.mark_point(TracePoint::kIrqPush, CoverageMap::kMaxSources);
  high.mark_point(TracePoint::kIrqPush, kNoId);
  EXPECT_EQ(high.count(), 1u) << "sources past the first 16 set region A only";
  EXPECT_TRUE(high.test(CoverageMap::kRegionA + 13));
}

TEST(CoverageMapTest, EveryPointAndSourceMatchesPerRecordReference) {
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s <= 20; ++s) sources.push_back(s);
  sources.push_back(kNoId);

  std::vector<TraceEvent> all;
  for (std::uint32_t p = 0; p < kPoints; ++p) {
    for (const std::uint32_t s : sources) {
      const TraceEvent one[] = {record(p, s)};
      ASSERT_EQ(table_driven(one).to_hex(), per_record(one).to_hex())
          << "point " << p << " source " << s;
      all.push_back(one[0]);
    }
  }
  const CoverageMap full = per_record(all);
  EXPECT_EQ(table_driven(all).to_hex(), full.to_hex());
  EXPECT_EQ(full.count(), kPoints * (1 + CoverageMap::kMaxSources));
}

TEST(CoverageMapTest, EmptySpanSetsNothing) {
  EXPECT_EQ(table_driven({}).count(), 0u);
  EXPECT_EQ(table_driven({}).to_hex(), CoverageMap{}.to_hex());
}

TEST(CoverageMapTest, RandomStreamsMatchPerRecordReference) {
  std::mt19937_64 rng(0xc0ffee);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = rng() % (round < 100 ? 40 : 4000);
    const auto events = random_stream(rng, n);
    ASSERT_EQ(table_driven(events).to_hex(), per_record(events).to_hex())
        << "round " << round << ", " << n << " records";
  }
}

TEST(CoverageMapTest, SplitSpansMatchTheWholeStream) {
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 100; ++round) {
    const auto events = random_stream(rng, rng() % 600);
    const std::size_t cut = events.empty() ? 0 : rng() % (events.size() + 1);
    const std::span<const TraceEvent> whole(events);
    CoverageMap split;
    split.mark_points(whole.first(cut));
    split.mark_points(whole.subspan(cut));
    ASSERT_EQ(split.to_hex(), per_record(events).to_hex())
        << "round " << round << ", cut " << cut << " of " << events.size();
  }
}

TEST(CoverageMapTest, WrappedRingBlocksMatchItsSnapshot) {
  std::mt19937_64 rng(0xbadc0de);
  TraceRing ring(97);
  ring.set_enabled(true);
  for (const TraceEvent& e : random_stream(rng, 350)) ring.emit(e);
  const auto blocks = ring.retained();
  ASSERT_GT(ring.dropped(), 0u);
  ASSERT_FALSE(blocks[1].empty()) << "the ring must have wrapped";

  CoverageMap in_place;
  for (const auto block : blocks) in_place.mark_points(block);
  const auto copy = ring.snapshot();
  EXPECT_EQ(in_place.to_hex(), table_driven(copy).to_hex());
  EXPECT_EQ(in_place.to_hex(), per_record(copy).to_hex());
}

TEST(CoverageMapTest, OutOfRangePointBytesSetNoBit) {
  std::vector<TraceEvent> bad;
  for (const std::uint32_t point : {25u, 255u}) {
    for (const std::uint32_t source : {0u, 7u, 15u, 16u, kNoId}) {
      bad.push_back(record(point, source));
    }
  }
  EXPECT_EQ(table_driven(bad).count(), 0u);
  EXPECT_EQ(per_record(bad).count(), 0u);

  // Mixed into a valid stream they change nothing either.
  std::mt19937_64 rng(25);
  auto valid = random_stream(rng, 300);
  const std::string want = per_record(valid).to_hex();
  auto mixed = valid;
  for (const TraceEvent& e : bad) {
    mixed.insert(mixed.begin() + static_cast<std::ptrdiff_t>(rng() % mixed.size()), e);
  }
  EXPECT_EQ(table_driven(mixed).to_hex(), want);
  EXPECT_EQ(per_record(mixed).to_hex(), want);
}

}  // namespace
}  // namespace rthv::obs
