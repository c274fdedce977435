#include "mon/learning_monitor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rthv::mon {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_us(std::int64_t t) { return TimePoint::at_us(t); }

TEST(LearningDeltaMonitorTest, DeniesEverythingWhileLearning) {
  LearningDeltaMonitor m(2, 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(m.record_and_check(at_us(i * 100)));
    if (i < 4) {
      EXPECT_EQ(m.phase(), LearningDeltaMonitor::Phase::kLearning);
    }
  }
  EXPECT_EQ(m.phase(), LearningDeltaMonitor::Phase::kRunning);
}

TEST(LearningDeltaMonitorTest, LearnsMinimumDistances) {
  // Algorithm 1: the learned vector holds the smallest observed spans.
  LearningDeltaMonitor m(2, 4);
  m.record_and_check(at_us(0));
  m.record_and_check(at_us(100));  // gap 100
  m.record_and_check(at_us(130));  // gap 30, triple span 130
  m.record_and_check(at_us(200));  // gap 70, triple span 100
  const auto& learned = m.learned();
  ASSERT_EQ(learned.size(), 2u);
  EXPECT_EQ(learned[0], Duration::us(30));
  EXPECT_EQ(learned[1], Duration::us(100));
}

TEST(LearningDeltaMonitorTest, RunPhaseEnforcesLearnedPattern) {
  LearningDeltaMonitor m(1, 3);
  m.record_and_check(at_us(0));
  m.record_and_check(at_us(50));
  m.record_and_check(at_us(100));  // learned d_min = 50
  EXPECT_EQ(m.phase(), LearningDeltaMonitor::Phase::kRunning);
  EXPECT_TRUE(m.record_and_check(at_us(150)));   // 50 apart: conforming
  EXPECT_FALSE(m.record_and_check(at_us(190)));  // 40 apart: violation
}

TEST(LearningDeltaMonitorTest, BoundRaisesLearnedDistances) {
  // Algorithm 2: learned distances below the bound are raised to it.
  LearningDeltaMonitor m(1, 3, DeltaVector{Duration::us(200)});
  m.record_and_check(at_us(0));
  m.record_and_check(at_us(50));
  m.record_and_check(at_us(100));  // learned 50, bound 200 -> enforced 200
  EXPECT_EQ(m.enforced()[0], Duration::us(200));
  EXPECT_FALSE(m.record_and_check(at_us(250)));  // 150 < 200
  EXPECT_TRUE(m.record_and_check(at_us(450)));   // 200 apart
}

TEST(LearningDeltaMonitorTest, BoundBelowLearnedKeepsLearned) {
  LearningDeltaMonitor m(1, 3, DeltaVector{Duration::us(10)});
  m.record_and_check(at_us(0));
  m.record_and_check(at_us(100));
  m.record_and_check(at_us(200));  // learned 100 > bound 10
  EXPECT_EQ(m.enforced()[0], Duration::us(100));
}

TEST(LearningDeltaMonitorTest, UnobservedDepthClampedAndMonotone) {
  // Learning with depth 3 but only 2 activations: entry [1] observed once,
  // entry [2] never; the enforced vector must still be monotone and finite.
  LearningDeltaMonitor m(3, 2);
  m.record_and_check(at_us(0));
  m.record_and_check(at_us(70));
  const auto& enforced = m.enforced();
  ASSERT_EQ(enforced.size(), 3u);
  EXPECT_EQ(enforced[0], Duration::us(70));
  EXPECT_LE(enforced[0], enforced[1]);
  EXPECT_LE(enforced[1], enforced[2]);
  EXPECT_LT(enforced[2], Duration::max());
}

TEST(LearningDeltaMonitorTest, ZeroLearningEventsStartsRunningImmediately) {
  LearningDeltaMonitor m(1, 0, DeltaVector{Duration::us(100)});
  EXPECT_EQ(m.phase(), LearningDeltaMonitor::Phase::kRunning);
  EXPECT_TRUE(m.record_and_check(at_us(0)));
  EXPECT_FALSE(m.record_and_check(at_us(10)));
}

TEST(LearningDeltaMonitorTest, LearningEventsRemainingCountsDown) {
  LearningDeltaMonitor m(1, 3);
  EXPECT_EQ(m.learning_events_remaining(), 3u);
  m.record_and_check(at_us(0));
  EXPECT_EQ(m.learning_events_remaining(), 2u);
  m.record_and_check(at_us(10));
  m.record_and_check(at_us(20));
  EXPECT_EQ(m.learning_events_remaining(), 0u);
}

TEST(LearningDeltaMonitorTest, CrossPhaseDistancesUseFullHistory) {
  // The tracebuffer carries over from learning into running: an activation
  // right after the phase switch is checked against learning-phase events.
  LearningDeltaMonitor m(1, 2);
  m.record_and_check(at_us(0));
  m.record_and_check(at_us(100));  // learned d_min = 100; now running
  EXPECT_FALSE(m.record_and_check(at_us(150)));  // 50 after last learning event
  EXPECT_TRUE(m.record_and_check(at_us(250)));
}

TEST(LearningDeltaMonitorTest, RejectsZeroDepthAndMismatchedBound) {
  EXPECT_THROW(LearningDeltaMonitor(0, 10), std::invalid_argument);
  EXPECT_THROW(LearningDeltaMonitor(5, 10, DeltaVector{Duration::us(100), Duration::us(200)}),
               std::invalid_argument);
  EXPECT_NO_THROW(LearningDeltaMonitor(2, 10, DeltaVector{Duration::us(100), Duration::us(200)}));
}

TEST(LearningDeltaMonitorTest, RejectsBoundThatIsNotADeltaMinusFunction) {
  // finish_learning() would otherwise lift the later entries to the first.
  EXPECT_THROW(LearningDeltaMonitor(5, 10,
                                    DeltaVector{Duration::us(2100), Duration::us(300),
                                                Duration::us(300), Duration::us(300),
                                                Duration::us(300)}),
               std::invalid_argument);
  EXPECT_THROW(LearningDeltaMonitor(2, 10, DeltaVector{Duration::us(-1), Duration::us(200)}),
               std::invalid_argument);
  EXPECT_NO_THROW(LearningDeltaMonitor(2, 10, DeltaVector{Duration::zero(), Duration::zero()}));
}

}  // namespace
}  // namespace rthv::mon
