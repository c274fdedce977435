#include "mon/monitor.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>

#include "sim/random.hpp"

namespace rthv::mon {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_us(std::int64_t t) { return TimePoint::at_us(t); }

TEST(DeltaMinMonitorTest, FirstActivationAlwaysAdmitted) {
  DeltaVectorMonitor m(DeltaVector{Duration::us(100)});
  EXPECT_TRUE(m.record_and_check(at_us(5)));
  EXPECT_EQ(m.admitted(), 1u);
}

TEST(DeltaMinMonitorTest, AdmitsAtExactlyDmin) {
  DeltaVectorMonitor m(DeltaVector{Duration::us(100)});
  m.record_and_check(at_us(0));
  EXPECT_TRUE(m.record_and_check(at_us(100)));
}

TEST(DeltaMinMonitorTest, DeniesBelowDmin) {
  DeltaVectorMonitor m(DeltaVector{Duration::us(100)});
  m.record_and_check(at_us(0));
  EXPECT_FALSE(m.record_and_check(at_us(99)));
  EXPECT_EQ(m.denied(), 1u);
}

TEST(DeltaMinMonitorTest, DeniedActivationStillRecorded) {
  DeltaVectorMonitor m(DeltaVector{Duration::us(100)});
  m.record_and_check(at_us(0));
  EXPECT_FALSE(m.record_and_check(at_us(50)));   // violation, recorded
  EXPECT_FALSE(m.record_and_check(at_us(120)));  // only 70us after the burst event
  EXPECT_TRUE(m.record_and_check(at_us(220)));
}

TEST(DeltaMinMonitorTest, CountersTrackDecisions) {
  DeltaVectorMonitor m(DeltaVector{Duration::us(10)});
  m.record_and_check(at_us(0));
  m.record_and_check(at_us(5));
  m.record_and_check(at_us(20));
  EXPECT_EQ(m.admitted(), 2u);
  EXPECT_EQ(m.denied(), 1u);
  EXPECT_EQ(m.observed(), 3u);
}

TEST(DeltaVectorMonitorTest, SingleEntryBehavesLikeDeltaMin) {
  DeltaVectorMonitor v(DeltaVector{Duration::us(100)});
  const std::int64_t times[] = {0, 40, 150, 249, 250, 600};
  const bool verdicts[] = {true, false, true, false, false, true};
  for (std::size_t i = 0; i < std::size(times); ++i) {
    EXPECT_EQ(v.record_and_check(at_us(times[i])), verdicts[i]) << "t=" << times[i];
  }
}

TEST(DeltaVectorMonitorTest, DeeperEntryDeniesCloseTriple) {
  // Two consecutive events may be 10us apart, but any three must span 100us.
  DeltaVectorMonitor m(DeltaVector{Duration::us(10), Duration::us(100)});
  EXPECT_TRUE(m.record_and_check(at_us(0)));
  EXPECT_TRUE(m.record_and_check(at_us(10)));
  // 20us after the first event: pairwise OK (10us), triple span 20 < 100.
  EXPECT_FALSE(m.record_and_check(at_us(20)));
  // 100us after event 0 and >=10us after the last: conforming.
  EXPECT_TRUE(m.record_and_check(at_us(110)));
}

TEST(DeltaVectorMonitorTest, TracebufferWindowSlides) {
  DeltaVectorMonitor m(DeltaVector{Duration::us(10), Duration::us(30)});
  EXPECT_TRUE(m.record_and_check(at_us(0)));
  EXPECT_TRUE(m.record_and_check(at_us(30)));
  EXPECT_TRUE(m.record_and_check(at_us(60)));
  // 70us: 10 after 60 (ok), 40 after 30 (ok, needs 30).
  EXPECT_TRUE(m.record_and_check(at_us(70)));
  // 79us: 9 after 70 -> deny.
  EXPECT_FALSE(m.record_and_check(at_us(79)));
}

TEST(TracebufferTest, ShiftsNewestFirstAndSaturatesAtDepth) {
  Tracebuffer window(3);
  EXPECT_EQ(window.filled(), 0u);
  for (std::int64_t t = 1; t <= 5; ++t) window.record(at_us(t));
  ASSERT_EQ(window.filled(), 3u);
  EXPECT_EQ(window[0], at_us(5));
  EXPECT_EQ(window[1], at_us(4));
  EXPECT_EQ(window[2], at_us(3));
}

TEST(TracebufferTest, ConformsChecksOnlyFilledEntries) {
  const DeltaVector deltas{Duration::us(10), Duration::us(100)};
  Tracebuffer window(deltas);
  EXPECT_TRUE(window.conforms(at_us(0), deltas));
  window.record(at_us(0));
  EXPECT_FALSE(window.conforms(at_us(9), deltas));
  EXPECT_TRUE(window.conforms(at_us(10), deltas));  // entry 1 not filled yet
  window.record(at_us(10));
  EXPECT_FALSE(window.conforms(at_us(99), deltas));
  EXPECT_TRUE(window.conforms(at_us(100), deltas));
}

TEST(TracebufferTest, EarliestConformingIsTheFirstConformingInstant) {
  // Brute force on a 1 ns grid: earliest_conforming(t) conforms, and no
  // instant in [t, earliest) does.
  sim::Xoshiro256 rng(0x7b0f);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t depth = 1 + rng.uniform_int(0, 3);
    DeltaVector deltas;
    std::int64_t d = static_cast<std::int64_t>(rng.uniform_int(0, 10));
    for (std::size_t i = 0; i < depth; ++i) {
      deltas.push_back(Duration::ns(d));
      d += static_cast<std::int64_t>(rng.uniform_int(0, 15));
    }
    Tracebuffer window(deltas);
    std::int64_t last = 0;
    const std::uint64_t recorded = rng.uniform_int(0, depth + 2);
    for (std::uint64_t k = 0; k < recorded; ++k) {
      last += static_cast<std::int64_t>(rng.uniform_int(0, 12));
      window.record(TimePoint::at_ns(last));
    }
    const auto t = TimePoint::at_ns(last + static_cast<std::int64_t>(rng.uniform_int(0, 20)) - 5);
    const auto earliest = window.earliest_conforming(t, deltas);
    ASSERT_GE(earliest, t) << "trial " << trial;
    EXPECT_TRUE(window.conforms(earliest, deltas)) << "trial " << trial;
    for (auto u = t; u < earliest; u = u + Duration::ns(1)) {
      ASSERT_FALSE(window.conforms(u, deltas)) << "trial " << trial << " u=" << u.count_ns();
    }
  }
}

TEST(TracebufferTest, RejectsMalformedDeltaVectors) {
  EXPECT_THROW(Tracebuffer(std::size_t{0}), std::invalid_argument);
  EXPECT_THROW(Tracebuffer(DeltaVector{}), std::invalid_argument);
  EXPECT_THROW(Tracebuffer(DeltaVector{Duration::us(-1)}), std::invalid_argument);
  EXPECT_THROW(Tracebuffer(DeltaVector{Duration::us(2000), Duration::us(1000)}),
               std::invalid_argument);
  EXPECT_THROW(DeltaVectorMonitor(DeltaVector{Duration::us(20), Duration::us(10)}),
               std::invalid_argument);
  EXPECT_NO_THROW(Tracebuffer(DeltaVector{Duration::zero(), Duration::zero()}));
}

TEST(TracebufferTest, StateRoundTripRestoresWindow) {
  const DeltaVector deltas{Duration::us(10), Duration::us(30)};
  Tracebuffer a(deltas);
  for (const std::int64_t t : {0, 30, 60}) a.record(at_us(t));
  sim::StateWriter w;
  a.snapshot_state(w);
  Tracebuffer b(deltas);
  sim::StateReader r(w.words());
  b.restore_state(r);
  ASSERT_EQ(b.filled(), 2u);
  EXPECT_EQ(b[0], at_us(60));
  EXPECT_EQ(b[1], at_us(30));
  EXPECT_EQ(b.earliest_conforming(at_us(0), deltas), at_us(70));
}

TEST(AlwaysAdmitMonitorTest, AdmitsEverything) {
  AlwaysAdmitMonitor m;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(m.record_and_check(at_us(i)));
  EXPECT_EQ(m.admitted(), 5u);
  EXPECT_EQ(m.denied(), 0u);
}

TEST(ScaleForLoadFractionTest, QuarterLoadQuadruplesDistances) {
  const DeltaVector in{Duration::us(100), Duration::us(250)};
  const auto out = scale_for_load_fraction(in, 0.25);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Duration::us(400));
  EXPECT_EQ(out[1], Duration::us(1000));
}

TEST(ScaleForLoadFractionTest, FullLoadIsIdentity) {
  const DeltaVector in{Duration::us(123)};
  const auto out = scale_for_load_fraction(in, 1.0);
  EXPECT_EQ(out[0], Duration::us(123));
}

}  // namespace
}  // namespace rthv::mon
