// Health events: the kind names plus end-to-end tests that the hypervisor
// reports the right events, both as kHealth trace records and as counts.
#include "hv/health.hpp"

#include <gtest/gtest.h>

#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "obs/trace_event.hpp"
#include "sim/simulator.hpp"

namespace rthv::hv {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(HealthMonitorTest, KindNames) {
  EXPECT_EQ(to_string(HealthEventKind::kIrqQueueOverflow), "irq-queue-overflow");
  EXPECT_EQ(to_string(HealthEventKind::kBudgetOverrun), "budget-overrun");
}

// --- end-to-end: the hypervisor reports events ------------------------------

class HealthEndToEndTest : public ::testing::Test {
 protected:
  HealthEndToEndTest() : platform_(sim_, platform_config()), hv_(platform_, overheads()) {
    p0_ = hv_.add_partition("p0", /*irq_queue_capacity=*/2);
    p1_ = hv_.add_partition("p1");
    hv_.set_schedule({{p0_, Duration::us(1000)}, {p1_, Duration::us(1000)}});
    hv_.trace_ring().set_enabled(true);
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

  IrqSourceId add_source(Duration c_bottom) {
    IrqSourceConfig cfg;
    cfg.name = "src";
    cfg.line = 1;
    cfg.subscriber = p0_;
    cfg.c_top = Duration::us(5);
    cfg.c_bottom = c_bottom;
    const auto id = hv_.add_irq_source(cfg);
    timer_ = &platform_.add_timer(1);
    return id;
  }

  void raise_at(TimePoint t) {
    sim_.schedule_at(t, [this] { timer_->program(Duration::zero()); });
  }

  /// Expects `n` reports of `kind`: the hypervisor's count, and as many
  /// kHealth trace records (arg0 = kind), each naming `partition` and
  /// `source`.
  void expect_reports(HealthEventKind kind, std::uint64_t n, PartitionId partition,
                      std::uint32_t source) {
    EXPECT_EQ(hv_.health_count(kind), n);
    std::uint64_t records = 0;
    for (const auto& e : hv_.trace_ring().snapshot()) {
      if (e.point != obs::TracePoint::kHealth ||
          e.arg0 != static_cast<std::uint64_t>(kind)) {
        continue;
      }
      ++records;
      EXPECT_EQ(e.category, obs::TraceCategory::kOther);
      EXPECT_EQ(e.partition, partition);
      EXPECT_EQ(e.source, source);
    }
    EXPECT_EQ(records, n);
  }

  sim::Simulator sim_;
  hw::Platform platform_;
  Hypervisor hv_;
  PartitionId p0_ = 0, p1_ = 0;
  hw::HwTimer* timer_ = nullptr;
};

TEST_F(HealthEndToEndTest, QueueOverflowReported) {
  add_source(Duration::us(20));
  hv_.start();
  for (int i = 0; i < 4; ++i) raise_at(TimePoint::at_us(1100 + i * 50));
  sim_.run_until(TimePoint::at_us(1900));
  expect_reports(HealthEventKind::kIrqQueueOverflow, 2, p0_, 0);
}

TEST_F(HealthEndToEndTest, MonitorViolationReported) {
  const auto sid = add_source(Duration::us(20));
  hv_.set_monitor(sid, std::make_unique<mon::DeltaMinMonitor>(Duration::us(100000)));
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  raise_at(TimePoint::at_us(1100));  // admitted (first activation)
  raise_at(TimePoint::at_us(1400));  // violates d_min
  sim_.run_until(TimePoint::at_us(2500));
  expect_reports(HealthEventKind::kMonitorViolation, 1, p0_, sid);
}

TEST_F(HealthEndToEndTest, DeferredBoundaryReported) {
  const auto sid = add_source(Duration::us(100));
  hv_.set_monitor(sid, std::make_unique<mon::AlwaysAdmitMonitor>());
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  raise_at(TimePoint::at_us(1980));  // interposition straddles the boundary
  sim_.run_until(TimePoint::at_us(2300));
  // The boundary lands in the interposed partition's context; it names no
  // source.
  expect_reports(HealthEventKind::kDeferredBoundary, 1, p0_, obs::kNoId);
}

TEST_F(HealthEndToEndTest, RaiseLostReported) {
  add_source(Duration::us(20));
  hv_.start();
  // Two raises so close that the second hits the still-pending latch (the
  // first is latched while the CPU is in the boundary's hypervisor
  // sequence at t=1000..1011).
  raise_at(TimePoint::at_us(1001));
  raise_at(TimePoint::at_us(1002));
  sim_.run_until(TimePoint::at_us(2500));
  expect_reports(HealthEventKind::kIrqRaiseLost, 1, p0_, 0);
}

TEST_F(HealthEndToEndTest, BudgetOverrunReported) {
  // Source A (no monitor, big BH) queued; source B (admitted, small budget)
  // drains A's handler partially -> budget overrun.
  IrqSourceConfig a;
  a.name = "a";
  a.line = 1;
  a.subscriber = p0_;
  a.c_top = Duration::us(5);
  a.c_bottom = Duration::us(100);
  hv_.add_irq_source(a);
  auto& timer_a = platform_.add_timer(1);
  IrqSourceConfig b;
  b.name = "b";
  b.line = 2;
  b.subscriber = p0_;
  b.c_top = Duration::us(5);
  b.c_bottom = Duration::us(10);
  const auto sid_b = hv_.add_irq_source(b);
  hv_.set_monitor(sid_b, std::make_unique<mon::AlwaysAdmitMonitor>());
  auto& timer_b = platform_.add_timer(2);
  hv_.set_top_handler_mode(TopHandlerMode::kInterposing);
  hv_.start();
  sim_.schedule_at(TimePoint::at_us(1100), [&] { timer_a.program(Duration::zero()); });
  sim_.schedule_at(TimePoint::at_us(1300), [&] { timer_b.program(Duration::zero()); });
  sim_.run_until(TimePoint::at_us(2500));
  // The cut handler is A's, resumed under B's budget.
  expect_reports(HealthEventKind::kBudgetOverrun, 1, p0_, 0);
}

}  // namespace
}  // namespace rthv::hv
