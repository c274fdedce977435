// Boundary regression for the delta^- admission condition under clock
// jitter: an activation at exactly d_min after the previous one is admitted
// and one tick (1 ns) under is denied, for every monitor variant.
//
// The fault subsystem's drift injector moves activation instants off the
// analysis grid, so these tests place each probe pair at a seeded random
// absolute offset: shifting both activations together preserves their
// distance, and the admit/deny decision must not depend on where in the
// timeline the pair lands.
#include <gtest/gtest.h>

#include "mon/learning_monitor.hpp"
#include "mon/monitor.hpp"
#include "sim/random.hpp"

namespace rthv::mon {
namespace {

using sim::Duration;
using sim::TimePoint;

constexpr Duration kDmin = Duration::us(1444);
constexpr int kTrials = 64;

TimePoint jittered_base(sim::Xoshiro256& rng) {
  // Anywhere in the first simulated second, at full 1 ns resolution.
  return TimePoint::at_ns(
      static_cast<std::int64_t>(rng.uniform_int(0, 1'000'000'000)));
}

TEST(MonitorBoundaryTest, DeltaMinAdmitsAtExactlyDminUnderJitter) {
  sim::Xoshiro256 rng(2014);
  for (int trial = 0; trial < kTrials; ++trial) {
    const TimePoint base = jittered_base(rng);
    DeltaVectorMonitor m(DeltaVector{kDmin});
    ASSERT_TRUE(m.record_and_check(base));
    EXPECT_TRUE(m.record_and_check(base + kDmin))
        << "exact d_min denied at base " << base.count_ns() << " ns";
  }
}

TEST(MonitorBoundaryTest, DeltaMinDeniesOneTickUnderDminUnderJitter) {
  sim::Xoshiro256 rng(2015);
  for (int trial = 0; trial < kTrials; ++trial) {
    const TimePoint base = jittered_base(rng);
    DeltaVectorMonitor m(DeltaVector{kDmin});
    ASSERT_TRUE(m.record_and_check(base));
    EXPECT_FALSE(m.record_and_check(base + kDmin - Duration::ns(1)))
        << "d_min - 1 ns admitted at base " << base.count_ns() << " ns";
  }
}

TEST(MonitorBoundaryTest, DeltaVectorAdmitsAtExactlyDminUnderJitter) {
  sim::Xoshiro256 rng(2016);
  for (int trial = 0; trial < kTrials; ++trial) {
    const TimePoint base = jittered_base(rng);
    DeltaVectorMonitor m(DeltaVector{kDmin, kDmin * 2});
    ASSERT_TRUE(m.record_and_check(base));
    ASSERT_TRUE(m.record_and_check(base + kDmin * 2));
    // Pairwise distance exactly d_min, triple span exactly delta^-[2].
    EXPECT_TRUE(m.record_and_check(base + kDmin * 3))
        << "exact boundary denied at base " << base.count_ns() << " ns";
  }
}

TEST(MonitorBoundaryTest, DeltaVectorDeniesOneTickUnderEitherEntry) {
  sim::Xoshiro256 rng(2017);
  for (int trial = 0; trial < kTrials; ++trial) {
    const TimePoint base = jittered_base(rng);
    {
      // Pairwise entry one tick short.
      DeltaVectorMonitor m(DeltaVector{kDmin, kDmin * 2});
      ASSERT_TRUE(m.record_and_check(base));
      EXPECT_FALSE(m.record_and_check(base + kDmin - Duration::ns(1)));
    }
    {
      // Pairwise entry satisfied, triple entry one tick short.
      DeltaVectorMonitor m(DeltaVector{kDmin, kDmin * 3});
      ASSERT_TRUE(m.record_and_check(base));
      ASSERT_TRUE(m.record_and_check(base + kDmin));
      EXPECT_FALSE(m.record_and_check(base + kDmin * 3 - Duration::ns(1)))
          << "triple span one tick under delta^-[2] admitted at base "
          << base.count_ns() << " ns";
    }
  }
}

/// A learning monitor trained on exact d_min spacing with bound {d_min}
/// enforces exactly d_min once running (Algorithm 2 raises nothing here).
LearningDeltaMonitor trained_monitor(TimePoint base) {
  LearningDeltaMonitor m(/*depth=*/1, /*learning_events=*/4,
                         DeltaVector{kDmin});
  TimePoint t = base;
  for (int i = 0; i < 4; ++i) {
    m.record_and_check(t);
    t = t + kDmin;
  }
  EXPECT_EQ(m.phase(), LearningDeltaMonitor::Phase::kRunning);
  return m;
}

TEST(MonitorBoundaryTest, LearningMonitorAdmitsAtExactlyDminUnderJitter) {
  sim::Xoshiro256 rng(2018);
  for (int trial = 0; trial < kTrials; ++trial) {
    const TimePoint base = jittered_base(rng);
    auto m = trained_monitor(base);
    ASSERT_EQ(m.enforced().size(), 1u);
    ASSERT_EQ(m.enforced()[0], kDmin);
    EXPECT_TRUE(m.record_and_check(base + kDmin * 4))
        << "exact d_min denied at base " << base.count_ns() << " ns";
  }
}

TEST(MonitorBoundaryTest, LearningMonitorDeniesOneTickUnderDminUnderJitter) {
  sim::Xoshiro256 rng(2019);
  for (int trial = 0; trial < kTrials; ++trial) {
    const TimePoint base = jittered_base(rng);
    auto m = trained_monitor(base);
    EXPECT_FALSE(m.record_and_check(base + kDmin * 4 - Duration::ns(1)))
        << "d_min - 1 ns admitted at base " << base.count_ns() << " ns";
  }
}

}  // namespace
}  // namespace rthv::mon
