// Tests of the interposed-execution engine: budget enforcement, queue-head
// FIFO semantics, deferred TDMA switches and the bounded-interference
// property (Eq. 14) that makes the scheme "sufficiently temporally
// independent".
#include <gtest/gtest.h>

#include <vector>

#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "sim/simulator.hpp"

namespace rthv::hv {
namespace {

using sim::Duration;
using sim::TimePoint;

// Same cost model as hypervisor_test.cpp: ctx = 10us, sched = 5us,
// monitor = 1us, tick = 1us.
class InterposeTest : public ::testing::Test {
 protected:
  InterposeTest() : platform_(sim_, platform_config()), hv_(platform_, overheads()) {
    p0_ = hv_.add_partition("p0");
    p1_ = hv_.add_partition("p1");
    hv_.set_schedule({{p0_, Duration::us(1000)}, {p1_, Duration::us(1000)}});
    hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
    hv_.set_completion_hook([this](const CompletedIrq& rec) { completions_.push_back(rec); });
  }

  static hw::PlatformConfig platform_config() {
    hw::PlatformConfig cfg;
    cfg.ctx_invalidate_instructions = 1000;
    cfg.ctx_writeback_cycles = 1000;
    return cfg;
  }

  static OverheadConfig overheads() {
    OverheadConfig cfg;
    cfg.monitor_instructions = 200;
    cfg.sched_manipulation_instructions = 1000;
    cfg.tdma_tick_instructions = 200;
    return cfg;
  }

  IrqSourceId add_source(PartitionId subscriber, hw::IrqLine line, Duration c_bottom,
                         bool admit_always) {
    IrqSourceConfig cfg;
    cfg.name = "src" + std::to_string(line);
    cfg.line = line;
    cfg.subscriber = subscriber;
    cfg.c_top = Duration::us(5);
    cfg.c_bottom = c_bottom;
    const auto id = hv_.add_irq_source(cfg);
    if (admit_always) {
      hv_.set_monitor(id, std::make_unique<mon::AlwaysAdmitMonitor>());
    }
    timers_.push_back(&platform_.add_timer(line));
    return id;
  }

  void raise_at(std::size_t timer_index, TimePoint t) {
    sim_.schedule_at(t, [this, timer_index] {
      timers_[timer_index]->program(Duration::zero());
    });
  }

  sim::Simulator sim_;
  hw::Platform platform_;
  Hypervisor hv_;
  PartitionId p0_ = 0, p1_ = 0;
  std::vector<hw::HwTimer*> timers_;
  std::vector<CompletedIrq> completions_;
};

TEST_F(InterposeTest, BudgetExpiryCarriesBottomHandlerIntoOwnSlot) {
  // Source A (no monitor): C_BH = 100us, queued delayed. Source B (always
  // admitted): C_BH = 10us budget. B's admission runs the queue head (A's
  // event) for only 10us; the remaining 90us waits for p0's own slot.
  add_source(p0_, 1, Duration::us(100), /*admit_always=*/false);
  add_source(p0_, 2, Duration::us(10), /*admit_always=*/true);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));  // A: foreign, no monitor -> delayed
  raise_at(1, TimePoint::at_us(1200));  // B: admitted, budget 10us
  sim_.run_until(TimePoint::at_us(3000));

  ASSERT_EQ(completions_.size(), 2u);
  // A's BH: 10us inside B's interposition (1221-1231), 90us from slot start
  // dispatch at 2011 -> ends 2101. Classified delayed (it waited for the
  // slot).
  EXPECT_EQ(completions_[0].source, 0u);
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kDelayed);
  EXPECT_EQ(completions_[0].bh_end, TimePoint::at_us(2101));
  // B's event then runs its own 10us BH.
  EXPECT_EQ(completions_[1].source, 1u);
  EXPECT_EQ(completions_[1].bh_end, TimePoint::at_us(2111));
  EXPECT_EQ(completions_[1].handling, stats::HandlingClass::kDelayed);
}

TEST_F(InterposeTest, AdmissionBehindCutBottomHandlerIsDeniedAsBacklog) {
  // As above, but B raises again at 1500us, while the 90us remainder of A's
  // cut bottom handler is still pending in p0. The monitor admits it and the
  // engine is idle, yet interposing would resume stale work in p1's slot:
  // the hypervisor denies it with the backlog reason and it waits for p0.
  add_source(p0_, 1, Duration::us(100), /*admit_always=*/false);
  add_source(p0_, 2, Duration::us(10), /*admit_always=*/true);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));  // A: foreign, no monitor -> delayed
  raise_at(1, TimePoint::at_us(1200));  // B: admitted, budget cuts A's BH
  raise_at(1, TimePoint::at_us(1500));  // B: admitted, denied (backlog)
  sim_.run_until(TimePoint::at_us(3000));

  const auto& irq = hv_.irq_stats();
  EXPECT_EQ(irq.budget_overruns, 1u);
  EXPECT_EQ(irq.denied_backlog, 1u);
  EXPECT_EQ(irq.interpose_started, 1u);
  EXPECT_EQ(irq.denied_by_monitor, 0u);
  EXPECT_EQ(irq.denied_engine_busy, 0u);
  ASSERT_EQ(completions_.size(), 3u);
  for (const auto& rec : completions_) {
    EXPECT_EQ(rec.handling, stats::HandlingClass::kDelayed);
  }
}

TEST_F(InterposeTest, BudgetLeftoverDrainsNextQueuedEvent) {
  // Two events of a 10us-BH source are queued when a third admission with a
  // 30us budget arrives: the interposition drains all three (30us budget =
  // 3 x 10us BHs... exactly the queue content).
  add_source(p0_, 1, Duration::us(10), /*admit_always=*/true);
  // Use a second source to deny the first two events: simpler -- use one
  // source and exploit that the interpose engine denies while busy? No:
  // distances are large here. Instead raise all three in a burst; the first
  // admission's budget is 10us and drains only the first event; the second
  // and third events each get their own admission on arrival. This test
  // asserts that back-to-back admissions during the same foreign slot work.
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));
  raise_at(0, TimePoint::at_us(1200));
  raise_at(0, TimePoint::at_us(1300));
  sim_.run_until(TimePoint::at_us(2000));
  ASSERT_EQ(completions_.size(), 3u);
  for (const auto& rec : completions_) {
    EXPECT_EQ(rec.handling, stats::HandlingClass::kInterposed);
    // Each admission: TH 5 + Mon 1 + sched 5 + ctx 10 + BH 10 = 31us.
    EXPECT_EQ(rec.latency(), Duration::us(31));
  }
}

TEST_F(InterposeTest, EventDuringInterposeIsDeniedBusy) {
  // A second event arrives while the first interposition is still running;
  // the engine refuses nested interposing and the event waits (it is then
  // drained by the *same* interposition only if budget remains -- here the
  // budget is exactly one BH, so it becomes delayed).
  add_source(p0_, 1, Duration::us(100), /*admit_always=*/true);
  hv_.start();
  raise_at(0, TimePoint::at_us(1100));
  raise_at(0, TimePoint::at_us(1150));  // lands inside the first BH
  sim_.run_until(TimePoint::at_us(3000));
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kInterposed);
  EXPECT_EQ(completions_[1].handling, stats::HandlingClass::kDelayed);
  EXPECT_EQ(hv_.irq_stats().denied_engine_busy, 1u);
}

TEST_F(InterposeTest, SlotSwitchDeferredUntilBudgetEnd) {
  // Interposition straddles the p1 -> p0 boundary at t = 2000.
  add_source(p0_, 1, Duration::us(100), /*admit_always=*/true);
  hv_.start();
  raise_at(0, TimePoint::at_us(1980));
  // TH 1980-1985, Mon -1986, sched -1991, ctx -2001 (tick at 2000 latched),
  // tick handled 2001-2002 and deferred, BH 2002-2102, then the deferred
  // switch: advance + ctx -> p0 from 2112.
  sim_.run_until(TimePoint::at_us(2200));
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kInterposed);
  EXPECT_EQ(completions_[0].bh_end, TimePoint::at_us(2102));
  EXPECT_EQ(hv_.irq_stats().deferred_slot_switches, 1u);
  EXPECT_EQ(hv_.current_partition(), p0_);
  // The grid is preserved: the next boundary is still 3000.
  EXPECT_EQ(hv_.scheduler().current_boundary(), TimePoint::at_us(3000));
}

TEST_F(InterposeTest, InterferenceOnInterruptedPartitionIsBounded) {
  // Eq. 14: within the observation window, p1 loses at most
  // ceil(dt/d_min) * C'_BH of its slot time to interposed handling.
  struct BusyClient : PartitionClient {
    std::optional<WorkUnit> next_work(TimePoint) override {
      WorkUnit w;
      w.remaining = Duration::us(50);
      return w;
    }
  } client;
  hv_.set_partition_client(p1_, &client);
  const Duration d_min = Duration::us(200);
  const Duration c_bh = Duration::us(20);
  const auto sid = add_source(p0_, 1, c_bh, /*admit_always=*/false);
  hv_.set_monitor(sid,
                  std::make_unique<mon::DeltaVectorMonitor>(mon::DeltaVector{d_min}));
  hv_.start();
  // Conforming arrivals every 250us for 10 TDMA cycles: every foreign-slot
  // event is admitted, maximizing interference on p1.
  for (int i = 0; i < 80; ++i) {
    raise_at(0, TimePoint::at_us(100 + i * 250));
  }
  const auto horizon = TimePoint::at_us(20'000);
  sim_.run_until(horizon);

  // p1's nominal share: 10 slots x (1000 - 11)us switch-in cost.
  const Duration nominal = Duration::us(10 * 989);
  const Duration received = hv_.partition(p1_).guest_time();
  // C'_BH = 20 + 5 + 2*10 = 45us; admissions in p1's slots at most
  // ceil(10000/200) = 50 -> worst-case loss 2250us. Also subtract top
  // handlers (<= 80 x 6us) and in-flight work (not yet accounted).
  const Duration bound = Duration::us(50 * 45 + 80 * 6 + 50);
  EXPECT_GE(received, nominal - bound);
  // And the scheme is live: a meaningful number of interpositions happened.
  EXPECT_GT(hv_.irq_stats().interpose_started, 20u);
}

TEST_F(InterposeTest, NoInterferenceWhenMonitorDeniesEverything) {
  // d_min larger than the run: after the first admission everything is
  // denied, so p1 keeps (almost) its whole slot.
  struct BusyClient : PartitionClient {
    std::optional<WorkUnit> next_work(TimePoint) override {
      WorkUnit w;
      w.remaining = Duration::us(50);
      return w;
    }
  } client;
  hv_.set_partition_client(p1_, &client);
  const auto sid = add_source(p0_, 1, Duration::us(20), /*admit_always=*/false);
  hv_.set_monitor(sid,
                  std::make_unique<mon::DeltaVectorMonitor>(mon::DeltaVector{Duration::s(100)}));
  hv_.start();
  for (int i = 0; i < 50; ++i) {
    raise_at(0, TimePoint::at_us(1100 + i * 17));
  }
  sim_.run_until(TimePoint::at_us(2000));
  EXPECT_LE(hv_.irq_stats().interpose_started, 1u);
  // p1's slot [1011, 2000): guest time less only the 50 top handlers
  // (5us + 1us monitor each) and one possible interposition.
  const Duration lost_to_tops = Duration::us(50 * 6);
  const Duration one_interpose = Duration::us(20 + 5 + 20);
  EXPECT_GE(hv_.partition(p1_).guest_time(),
            Duration::us(989) - lost_to_tops - one_interpose - Duration::us(50));
}

TEST_F(InterposeTest, InterposeIntoIdlePartitionWorks) {
  // The subscriber partition has no client at all; interposed BHs still run.
  add_source(p0_, 1, Duration::us(20), /*admit_always=*/true);
  hv_.start();
  raise_at(0, TimePoint::at_us(1500));
  sim_.run_until(TimePoint::at_us(1600));
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].handling, stats::HandlingClass::kInterposed);
}

TEST_F(InterposeTest, HousekeepingSlotAlsoInterposable) {
  // Third partition with a short slot (the paper's housekeeping partition):
  // IRQs arriving in its slot are interposed like any other foreign slot.
  sim::Simulator sim;
  hw::Platform platform(sim, platform_config());
  Hypervisor hv(platform, overheads());
  const auto a = hv.add_partition("app1");
  const auto b = hv.add_partition("app2");
  const auto hk = hv.add_partition("housekeeping");
  hv.set_schedule({{a, Duration::us(6000)}, {b, Duration::us(6000)}, {hk, Duration::us(2000)}});
  hv.set_top_handler_mode(TopHandlerMode::kInterposing);
  IrqSourceConfig cfg;
  cfg.name = "io";
  cfg.line = 1;
  cfg.subscriber = b;
  cfg.c_top = Duration::us(5);
  cfg.c_bottom = Duration::us(40);
  const auto sid = hv.add_irq_source(cfg);
  hv.set_monitor(sid, std::make_unique<mon::AlwaysAdmitMonitor>());
  auto& timer = platform.add_timer(1);
  std::vector<CompletedIrq> recs;
  hv.set_completion_hook([&](const CompletedIrq& r) { recs.push_back(r); });
  hv.start();
  sim.schedule_at(TimePoint::at_us(12'500),  // housekeeping slot [12000, 14000)
                  [&timer] { timer.program(Duration::zero()); });
  sim.run_until(TimePoint::at_us(13'000));
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].handling, stats::HandlingClass::kInterposed);
  // TH 5 + Mon 1 + sched 5 + ctx 10 + BH 40 = 61us.
  EXPECT_EQ(recs[0].latency(), Duration::us(61));
}

}  // namespace
}  // namespace rthv::hv
