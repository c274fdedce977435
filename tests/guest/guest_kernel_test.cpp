#include "guest/guest_kernel.hpp"

#include <gtest/gtest.h>

namespace rthv::guest {
namespace {

using sim::Duration;
using sim::TimePoint;

hv::WorkUnit take(GuestKernel& k, sim::Simulator& s) {
  auto w = k.next_work(s.now());
  EXPECT_TRUE(w.has_value());
  return std::move(*w);
}

/// Takes the next unit and reports it finished, as the hypervisor does once
/// the unit's demand is used up.
void finish(GuestKernel& k, sim::Simulator& s) {
  take(k, s);
  k.on_work_complete();
}

TEST(GuestKernelTest, NoTasksMeansIdle) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  k.start();
  EXPECT_FALSE(k.next_work(sim.now()).has_value());
}

TEST(GuestKernelTest, BackgroundTaskAlwaysReady) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig bg;
  bg.name = "bg";
  bg.budget = Duration::us(100);
  bg.period = Duration::zero();
  k.add_task(bg);
  k.start();
  for (int i = 0; i < 3; ++i) {
    auto w = take(k, sim);
    EXPECT_EQ(w.remaining, Duration::us(100));
    k.on_work_complete();  // simulate the hypervisor finishing the unit
  }
  const TaskId id = 0;
  EXPECT_EQ(k.jobs_completed(id), 3u);
}

TEST(GuestKernelTest, QuantumChunksWork) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig bg;
  bg.name = "bg";
  bg.budget = Duration::us(100);
  bg.period = Duration::zero();
  bg.quantum = Duration::us(30);
  k.add_task(bg);
  // A second (dormant, event-driven) task gives the quantum something to
  // do: chunk boundaries are where its activation would preempt. A kernel
  // whose only task is the background load skips the chunking entirely --
  // see SoleTaskIgnoresQuantum below.
  GuestTaskConfig other;
  other.name = "handler";
  other.priority = 1;
  other.budget = Duration::us(5);
  other.event_driven = true;
  k.add_task(other);
  k.start();
  // 30 + 30 + 30 + 10 = one full job.
  auto w1 = take(k, sim);
  EXPECT_EQ(w1.remaining, Duration::us(30));
  k.on_work_complete();
  finish(k, sim);
  finish(k, sim);
  auto w4 = take(k, sim);
  EXPECT_EQ(w4.remaining, Duration::us(10));
  k.on_work_complete();
  EXPECT_EQ(k.jobs_completed(0), 1u);
}

TEST(GuestKernelTest, SoleTaskIgnoresQuantum) {
  // The quantum bounds how long *another* task's release waits for a chunk
  // boundary; with a single task there is no such release, so the whole
  // remaining job is handed over as one unit (the hypervisor still preempts
  // it at IRQs and slot boundaries) instead of one simulator event per
  // quantum.
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig bg;
  bg.name = "bg";
  bg.budget = Duration::us(100);
  bg.period = Duration::zero();
  bg.quantum = Duration::us(30);
  k.add_task(bg);
  k.start();
  auto w = take(k, sim);
  EXPECT_EQ(w.remaining, Duration::us(100));
  k.on_work_complete();
  EXPECT_EQ(k.jobs_completed(0), 1u);
  // The background job re-arms for the next full budget.
  EXPECT_EQ(take(k, sim).remaining, Duration::us(100));
}

TEST(GuestKernelTest, PeriodicTaskReleasesOnSchedule) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "periodic";
  t.budget = Duration::us(10);
  t.period = Duration::ms(1);
  k.add_task(t);
  k.start();
  EXPECT_FALSE(k.next_work(sim.now()).has_value());  // phase 0 release not yet run
  sim.run_until(TimePoint::at_us(0));                // release event at t=0
  auto w = take(k, sim);
  EXPECT_EQ(w.remaining, Duration::us(10));
  k.on_work_complete();
  EXPECT_EQ(k.jobs_completed(0), 1u);
  EXPECT_FALSE(k.next_work(sim.now()).has_value());  // waits for next period
  sim.run_until(TimePoint::at_us(1000));
  EXPECT_TRUE(k.next_work(sim.now()).has_value());
  EXPECT_EQ(k.jobs_released(0), 2u);
}

TEST(GuestKernelTest, PhaseDelaysFirstRelease) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "phased";
  t.budget = Duration::us(10);
  t.period = Duration::ms(1);
  t.phase = Duration::us(300);
  k.add_task(t);
  k.start();
  sim.run_until(TimePoint::at_us(299));
  EXPECT_FALSE(k.next_work(sim.now()).has_value());
  sim.run_until(TimePoint::at_us(300));
  EXPECT_TRUE(k.next_work(sim.now()).has_value());
}

TEST(GuestKernelTest, FixedPriorityPicksLowestNumber) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig lo;
  lo.name = "low";
  lo.priority = 10;
  lo.budget = Duration::us(10);
  lo.period = Duration::ms(1);
  GuestTaskConfig hi;
  hi.name = "high";
  hi.priority = 1;
  hi.budget = Duration::us(20);
  hi.period = Duration::ms(1);
  const TaskId lo_id = k.add_task(lo);
  const TaskId hi_id = k.add_task(hi);
  k.start();
  sim.run_until(TimePoint::at_us(0));
  auto w = take(k, sim);
  EXPECT_EQ(w.remaining, Duration::us(20));  // the high-priority task's budget
  k.on_work_complete();
  EXPECT_EQ(k.jobs_completed(hi_id), 1u);
  // Then the low-priority one runs.
  auto w2 = take(k, sim);
  EXPECT_EQ(w2.remaining, Duration::us(10));
  k.on_work_complete();
  EXPECT_EQ(k.jobs_completed(lo_id), 1u);
}

TEST(GuestKernelTest, OverrunsCountedWhenJobUnfinishedAtRelease) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "tight";
  t.budget = Duration::us(10);
  t.period = Duration::us(100);
  k.add_task(t);
  k.start();
  // Never execute the job; let three more releases pass.
  sim.run_until(TimePoint::at_us(350));
  EXPECT_EQ(k.jobs_released(0), 1u);
  EXPECT_EQ(k.overruns(0), 3u);
}

TEST(GuestKernelTest, JobCompleteCallbackFires) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "cb";
  t.budget = Duration::us(10);
  t.period = Duration::ms(1);
  k.add_task(t);
  TaskId seen = 999;
  k.set_job_complete_callback([&](TaskId id, TimePoint) { seen = id; });
  k.start();
  sim.run_until(TimePoint::at_us(0));
  finish(k, sim);
  EXPECT_EQ(seen, 0u);
}

TEST(GuestKernelTest, BottomHandlerCallbackAndCounter) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  std::uint64_t cb_count = 0;
  k.set_bottom_handler_callback([&](const hv::IrqEvent&) { ++cb_count; });
  hv::IrqEvent ev;
  ev.seq = 3;
  k.on_bottom_handler_complete(ev);
  k.on_bottom_handler_complete(ev);
  EXPECT_EQ(cb_count, 2u);
  EXPECT_EQ(k.bottom_handlers_seen(), 2u);
}

TEST(GuestKernelTest, DeadlineMissDetectedOnLateCompletion) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "dl";
  t.budget = Duration::us(10);
  t.period = Duration::ms(1);
  t.deadline = Duration::us(100);
  k.add_task(t);
  TaskId missed = 999;
  k.set_deadline_miss_callback([&](TaskId id, TimePoint) { missed = id; });
  k.start();
  sim.run_until(TimePoint::at_us(0));  // release at t=0
  take(k, sim);
  // Simulate the hypervisor finishing the job far too late.
  sim.schedule_at(TimePoint::at_us(500), [&] { k.on_work_complete(); });
  sim.run_until(TimePoint::at_us(500));
  EXPECT_EQ(k.deadline_misses(0), 1u);
  EXPECT_EQ(missed, 0u);
}

TEST(GuestKernelTest, OnTimeCompletionIsNoMiss) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "dl";
  t.budget = Duration::us(10);
  t.period = Duration::ms(1);
  t.deadline = Duration::us(100);
  k.add_task(t);
  k.start();
  sim.run_until(TimePoint::at_us(0));
  take(k, sim);
  sim.schedule_at(TimePoint::at_us(50), [&] { k.on_work_complete(); });
  sim.run_until(TimePoint::at_us(200));
  EXPECT_EQ(k.deadline_misses(0), 0u);
  EXPECT_EQ(k.jobs_completed(0), 1u);
}

TEST(GuestKernelTest, ZeroDeadlineDisablesMonitoring) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "nodl";
  t.budget = Duration::us(10);
  t.period = Duration::ms(1);
  k.add_task(t);
  k.start();
  sim.run_until(TimePoint::at_us(0));
  take(k, sim);
  sim.schedule_at(TimePoint::at_us(999), [&] { k.on_work_complete(); });
  sim.run_until(TimePoint::at_us(999));
  EXPECT_EQ(k.deadline_misses(0), 0u);
}

TEST(GuestKernelTest, EqualPrioritiesServedRoundRobin) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  // Two always-ready background tasks at the same priority: without
  // rotation, task 0 would be picked forever.
  GuestTaskConfig bg;
  bg.name = "bg0";
  bg.priority = 7;
  bg.budget = Duration::us(10);
  bg.period = Duration::zero();
  k.add_task(bg);
  bg.name = "bg1";
  k.add_task(bg);
  k.start();
  for (int i = 0; i < 10; ++i) finish(k, sim);
  EXPECT_EQ(k.jobs_completed(0), 5u);
  EXPECT_EQ(k.jobs_completed(1), 5u);
}

TEST(GuestKernelTest, RoundRobinDoesNotOverridePriority) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig hi;
  hi.name = "hi";
  hi.priority = 1;
  hi.budget = Duration::us(10);
  hi.period = Duration::zero();
  GuestTaskConfig lo = hi;
  lo.name = "lo";
  lo.priority = 9;
  k.add_task(hi);
  k.add_task(lo);
  k.start();
  for (int i = 0; i < 6; ++i) finish(k, sim);
  // The high-priority background task monopolizes the CPU.
  EXPECT_EQ(k.jobs_completed(0), 6u);
  EXPECT_EQ(k.jobs_completed(1), 0u);
}

TEST(GuestKernelTest, EventDrivenTaskRunsOnActivate) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "handler";
  t.budget = Duration::us(30);
  t.event_driven = true;
  const TaskId id = k.add_task(t);
  k.start();
  EXPECT_FALSE(k.next_work(sim.now()).has_value());
  k.activate(id);
  auto w = take(k, sim);
  EXPECT_EQ(w.remaining, Duration::us(30));
  k.on_work_complete();
  EXPECT_EQ(k.jobs_completed(id), 1u);
  EXPECT_FALSE(k.next_work(sim.now()).has_value());
}

TEST(GuestKernelTest, EventDrivenActivationsQueueUp) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "handler";
  t.budget = Duration::us(30);
  t.event_driven = true;
  const TaskId id = k.add_task(t);
  k.start();
  k.activate(id);
  k.activate(id);  // arrives while the first job is pending
  k.activate(id);
  // Three jobs run back-to-back.
  for (int i = 0; i < 3; ++i) finish(k, sim);
  EXPECT_EQ(k.jobs_completed(id), 3u);
  EXPECT_EQ(k.jobs_released(id), 3u);
  EXPECT_FALSE(k.next_work(sim.now()).has_value());
}

TEST(GuestKernelTest, EventDrivenWakesPartition) {
  sim::Simulator sim;
  GuestKernel k(sim, "g");
  GuestTaskConfig t;
  t.name = "handler";
  t.budget = Duration::us(30);
  t.event_driven = true;
  const TaskId id = k.add_task(t);
  int wakes = 0;
  k.set_wake_callback([&] { ++wakes; });
  k.start();
  k.activate(id);
  EXPECT_EQ(wakes, 1);
  k.activate(id);  // backlog: no extra wake needed, work already runnable
  EXPECT_EQ(wakes, 1);
}

}  // namespace
}  // namespace rthv::guest
