// Unit tests for the interference oracle on hand-built trace streams.
//
// The synthetic events let us place admissions at exact nanosecond offsets
// and pin the oracle's window semantics: eta+(dt) = ceil(dt/d_min) counts
// events in half-open windows, so the tightest window over admissions i..j
// allows floor(span/d_min) + 1 of them -- any pair strictly closer than
// d_min is already a violation, while exact d_min spacing is conforming
// with admitted/bound exactly 1.
#include "fault/oracle.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"

namespace rthv::fault {
namespace {

using obs::TraceCategory;
using obs::TraceEvent;
using obs::TracePoint;
using sim::Duration;

constexpr std::int64_t kUs = 1000;

OracleSourceParams params_us(std::int64_t d_min_us, std::int64_t c_bh_eff_us = 200,
                             std::int64_t pre_cost_us = 30) {
  OracleSourceParams p;
  p.source = 0;
  p.d_min = Duration::us(d_min_us);
  p.c_bh_eff = Duration::us(c_bh_eff_us);
  p.pre_cost = Duration::us(pre_cost_us);
  return p;
}

TraceEvent admission(std::int64_t raise_ns, std::uint32_t source = 0) {
  TraceEvent e;
  e.time_ns = raise_ns;  // close enough for replay; the check reads arg0
  e.point = TracePoint::kInterposeStart;
  e.category = TraceCategory::kInterpose;
  e.source = source;
  e.arg0 = static_cast<std::uint64_t>(raise_ns);
  return e;
}

TraceEvent at(std::int64_t time_ns, TracePoint point,
              TraceCategory category = TraceCategory::kInterpose,
              std::uint32_t source = 0) {
  TraceEvent e;
  e.time_ns = time_ns;
  e.point = point;
  e.category = category;
  e.source = source;
  return e;
}

TEST(InterferenceOracleTest, ExactDminSpacingConformsWithRatioOne) {
  InterferenceOracle oracle({params_us(1000)});
  std::vector<TraceEvent> events;
  for (int i = 0; i < 50; ++i) events.push_back(admission(i * 1000 * kUs));
  const auto report = oracle.verify(events);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.interpositions, 50u);
  EXPECT_EQ(report.windows_checked, 49u);
  EXPECT_DOUBLE_EQ(report.worst_ratio, 1.0);
}

TEST(InterferenceOracleTest, PairOneNsUnderDminViolates) {
  InterferenceOracle oracle({params_us(1000)});
  const auto report = oracle.verify({admission(0), admission(1000 * kUs - 1)});
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_FALSE(report.ok());
  const auto& v = report.violations[0];
  EXPECT_EQ(v.admitted, 2u);
  EXPECT_EQ(v.bound, 1u);  // floor(999999/1000000) + 1
  EXPECT_EQ(v.window_start_ns, 0);
  EXPECT_EQ(v.window_end_ns, 1000 * kUs - 1);
}

TEST(InterferenceOracleTest, SparseStreamNeverViolates) {
  InterferenceOracle oracle({params_us(1000)});
  const auto report = oracle.verify(
      {admission(0), admission(1500 * kUs), admission(4000 * kUs),
       admission(5001 * kUs)});
  EXPECT_TRUE(report.ok());
  EXPECT_LE(report.worst_ratio, 1.0);
}

TEST(InterferenceOracleTest, ViolationWindowNeedNotBeAdjacent) {
  // Pairwise gaps of 600us each conform to nothing here: three admissions in
  // 1200us exceed floor(1200/1000)+1 = 2. The violating window spans the
  // first and third admission, not a neighbouring pair.
  InterferenceOracle oracle({params_us(1000)});
  const auto report =
      oracle.verify({admission(0), admission(600 * kUs), admission(1200 * kUs)});
  ASSERT_FALSE(report.violations.empty());
  const auto& v = report.violations.front();
  EXPECT_EQ(v.first_index, 0u);
  EXPECT_EQ(v.last_index, 1u);  // the 600us pair already violates
  EXPECT_EQ(v.admitted, 2u);
  EXPECT_EQ(v.bound, 1u);
}

TEST(InterferenceOracleTest, RecoveredStreamStaysFlagged) {
  // One early violation must not be masked by later conforming behaviour:
  // after the 500us pair, a 1500us gap re-amortizes the count and the rest
  // of the stream runs at exactly d_min without further violations.
  InterferenceOracle oracle({params_us(1000)});
  std::vector<TraceEvent> events{admission(0), admission(500 * kUs)};
  for (int i = 0; i < 20; ++i) events.push_back(admission((2000 + 1000 * i) * kUs));
  const auto report = oracle.verify(events);
  EXPECT_EQ(report.violations.size(), 1u);
  EXPECT_GT(report.worst_ratio, 1.0);
}

TEST(InterferenceOracleTest, SourcesAreTrackedIndependently) {
  InterferenceOracle oracle({params_us(1000), [] {
                               auto p = params_us(1000);
                               p.source = 1;
                               return p;
                             }()});
  // Interleaved: each source individually conforms at exactly d_min.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(admission(i * 1000 * kUs, 0));
    events.push_back(admission(i * 1000 * kUs + 400 * kUs, 1));
  }
  EXPECT_TRUE(oracle.verify(events).ok());
  // ... and a violation on source 1 names source 1.
  events.push_back(admission(9 * 1000 * kUs + 400 * kUs + 1, 1));
  const auto report = oracle.verify(events);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].source, 1u);
}

TEST(InterferenceOracleTest, UnmonitoredSourceIsIgnored) {
  InterferenceOracle oracle({params_us(1000)});
  const auto report =
      oracle.verify({admission(0, 7), admission(10, 7), admission(20, 7)});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.windows_checked, 0u);
}

TEST(InterferenceOracleTest, CleanSpanWithinBudgetPasses) {
  // c_bh_eff 200us, pre_cost 30us: a 170us enter->return span is exactly at
  // the bound.
  InterferenceOracle oracle({params_us(1000)});
  const auto report = oracle.verify(
      {at(0, TracePoint::kInterposeEnter),
       at(170 * kUs, TracePoint::kInterposeReturn)});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.spans_checked, 1u);
  EXPECT_EQ(report.max_interposition_ns, 200 * kUs);
}

TEST(InterferenceOracleTest, OverlongSpanIsACostViolation) {
  InterferenceOracle oracle({params_us(1000)});
  const auto report = oracle.verify(
      {at(0, TracePoint::kInterposeEnter),
       at(170 * kUs + 1, TracePoint::kInterposeReturn)});
  ASSERT_EQ(report.cost_violations.size(), 1u);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_FALSE(report.ok());
}

TEST(InterferenceOracleTest, PreemptedSpanIsExcludedNotFailed) {
  // A TDMA tick (scheduler category) inside the span inflates its wall-clock
  // with work Eq. 14 does not charge to this interposition.
  InterferenceOracle oracle({params_us(1000)});
  const auto report = oracle.verify(
      {at(0, TracePoint::kInterposeEnter),
       at(50 * kUs, TracePoint::kSlotDeferred, TraceCategory::kScheduler),
       at(500 * kUs, TracePoint::kInterposeReturn)});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.spans_checked, 0u);
  EXPECT_EQ(report.preempted_spans, 1u);
}

TEST(InterferenceOracleTest, DeferredExitClosesSpan) {
  InterferenceOracle oracle({params_us(1000)});
  const auto report = oracle.verify(
      {at(0, TracePoint::kInterposeEnter),
       at(100 * kUs, TracePoint::kInterposeExitDeferred)});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.spans_checked, 1u);
  EXPECT_EQ(report.max_interposition_ns, 130 * kUs);
}

TEST(InterferenceOracleTest, UnrelatedEventsDoNotPreemptSpans) {
  InterferenceOracle oracle({params_us(1000)});
  const auto report = oracle.verify(
      {at(0, TracePoint::kInterposeEnter),
       at(10 * kUs, TracePoint::kIrqPush, TraceCategory::kIrq),
       at(100 * kUs, TracePoint::kInterposeReturn)});
  EXPECT_EQ(report.spans_checked, 1u);
  EXPECT_EQ(report.preempted_spans, 0u);
}

// The ring overload replays the retained window in place: after a wrap it
// is two blocks, and a violating admission pair and a span may straddle
// them. It must report exactly what replaying the copied snapshot does.
TEST(InterferenceOracleTest, RingReplayMatchesSnapshotAcrossWrap) {
  InterferenceOracle oracle({params_us(1000)});
  obs::TraceRing ring(5);
  ring.set_enabled(true);
  for (const auto& e :
       {admission(0), admission(5000 * kUs), at(5010 * kUs, TracePoint::kInterposeEnter),
        at(5100 * kUs, TracePoint::kInterposeReturn), admission(8000 * kUs),
        admission(8500 * kUs), at(8510 * kUs, TracePoint::kInterposeEnter),
        at(8600 * kUs, TracePoint::kInterposeReturn)}) {
    ring.emit(e);
  }
  ASSERT_EQ(ring.dropped(), 3u);
  const auto blocks = ring.retained();
  ASSERT_EQ(blocks[0].size(), 2u);  // the admission pair straddles the blocks
  ASSERT_EQ(blocks[1].size(), 3u);

  const auto in_place = oracle.verify(ring);
  const auto copied = oracle.verify(ring.snapshot());
  EXPECT_EQ(in_place.interpositions, 2u);
  ASSERT_EQ(in_place.violations.size(), 1u);
  EXPECT_EQ(in_place.violations[0].window_start_ns, 8000 * kUs);
  EXPECT_EQ(in_place.spans_checked, 1u);
  EXPECT_EQ(in_place.interpositions, copied.interpositions);
  EXPECT_EQ(in_place.windows_checked, copied.windows_checked);
  EXPECT_EQ(in_place.spans_checked, copied.spans_checked);
  EXPECT_EQ(in_place.preempted_spans, copied.preempted_spans);
  EXPECT_EQ(in_place.max_interposition_ns, copied.max_interposition_ns);
  EXPECT_EQ(in_place.violations.size(), copied.violations.size());
  EXPECT_DOUBLE_EQ(in_place.worst_ratio, copied.worst_ratio);
}

}  // namespace
}  // namespace rthv::fault
