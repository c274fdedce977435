#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace rthv::sim {
namespace {

using namespace rthv::sim::literals;

TEST(SimulatorTest, ClockStartsAtOrigin) {
  Simulator s;
  EXPECT_EQ(s.now(), TimePoint::origin());
  EXPECT_TRUE(s.idle());
}

TEST(SimulatorTest, RunAdvancesClockToEventTimes) {
  Simulator s;
  std::vector<std::int64_t> seen;
  s.schedule_at(TimePoint::at_us(5), [&] { seen.push_back(s.now().count_ns()); });
  s.schedule_at(TimePoint::at_us(2), [&] { seen.push_back(s.now().count_ns()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2000, 5000}));
  EXPECT_EQ(s.now(), TimePoint::at_us(5));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  TimePoint fired;
  s.schedule_at(TimePoint::at_us(10), [&] {
    s.schedule_after(5_us, [&] { fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired, TimePoint::at_us(15));
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndSetsClock) {
  Simulator s;
  int ran = 0;
  s.schedule_at(TimePoint::at_us(1), [&] { ++ran; });
  s.schedule_at(TimePoint::at_us(100), [&] { ++ran; });
  const auto n = s.run_until(TimePoint::at_us(50));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), TimePoint::at_us(50));
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(SimulatorTest, EventsExactlyAtHorizonRun) {
  Simulator s;
  bool ran = false;
  s.schedule_at(TimePoint::at_us(50), [&] { ran = true; });
  s.run_until(TimePoint::at_us(50));
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator s;
  int ran = 0;
  s.schedule_at(TimePoint::at_us(1), [&] { ++ran; });
  s.schedule_at(TimePoint::at_us(2), [&] { ++ran; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const auto id = s.schedule_at(TimePoint::at_us(1), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CallbackCanScheduleMoreEvents) {
  Simulator s;
  int depth = 0;
  // Scheduled callables are copied into the queue as plain bytes, so the
  // std::function is captured by reference rather than copied.
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule_after(1_us, [&chain] { chain(); });
  };
  s.schedule_after(1_us, [&chain] { chain(); });
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(s.now(), TimePoint::at_us(10));
}

TEST(SimulatorTest, ZeroDelayEventRunsAtSameTimeAfterCurrent) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(TimePoint::at_us(1), [&] {
    order.push_back(1);
    s.schedule_after(Duration::zero(), [&] { order.push_back(2); });
  });
  s.schedule_at(TimePoint::at_us(1), [&] { order.push_back(3); });
  s.run();
  // The zero-delay event was scheduled after event 3, so FIFO at equal time.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, ExecutedEventCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(TimePoint::at_us(i), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 7u);
}

TEST(SimulatorTest, RunUntilWithEmptyQueueAdvancesClock) {
  Simulator s;
  s.run_until(TimePoint::at_us(42));
  EXPECT_EQ(s.now(), TimePoint::at_us(42));
}

}  // namespace
}  // namespace rthv::sim
