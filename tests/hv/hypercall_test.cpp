// Hypercall behaviour end to end: the work-available wake notification.
#include <gtest/gtest.h>

#include <optional>

#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "sim/simulator.hpp"

namespace rthv::hv {
namespace {

using sim::Duration;
using sim::TimePoint;

class HypercallTest : public ::testing::Test {
 protected:
  HypercallTest() : platform_(sim_, platform_config()), hv_(platform_, overheads()) {
    p0_ = hv_.add_partition("p0");
    p1_ = hv_.add_partition("p1");
    hv_.set_schedule({{p0_, Duration::us(1000)}, {p1_, Duration::us(1000)}});
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

  sim::Simulator sim_;
  hw::Platform platform_;
  Hypervisor hv_;
  PartitionId p0_ = 0, p1_ = 0;
};

TEST_F(HypercallTest, NotifyWakesIdlePartition) {
  // A client that is initially idle and becomes ready via an external event.
  struct WakeableClient : PartitionClient {
    bool ready = false;
    std::uint64_t completed = 0;
    std::optional<WorkUnit> next_work(TimePoint) override {
      if (!ready) return std::nullopt;
      ready = false;
      WorkUnit w;
      w.remaining = Duration::us(50);
      return w;
    }
    void on_work_complete() override { ++completed; }
  } client;
  hv_.set_partition_client(p0_, &client);
  hv_.start();
  // p0 idles; work appears at t=300 with a wake notification.
  sim_.schedule_at(TimePoint::at_us(300), [&] {
    client.ready = true;
    hv_.notify_work_available(p0_);
  });
  sim_.run_until(TimePoint::at_us(400));
  EXPECT_EQ(client.completed, 1u);  // ran [300, 350), not at the next slot

  // Without the notification, the same event would wait for the next
  // context switch into p0 (t = 2011).
  sim_.schedule_at(TimePoint::at_us(1500), [&] { client.ready = true; });
  sim_.run_until(TimePoint::at_us(1600));
  EXPECT_EQ(client.completed, 1u);  // p1's slot: nothing ran
  sim_.run_until(TimePoint::at_us(2100));
  EXPECT_EQ(client.completed, 2u);  // picked up at p0's next slot start
}

TEST_F(HypercallTest, NotifyIsNoOpForInactivePartition) {
  struct WakeableClient : PartitionClient {
    bool ready = false;
    std::optional<WorkUnit> next_work(TimePoint) override {
      if (!ready) return std::nullopt;
      ready = false;
      WorkUnit w;
      w.remaining = Duration::us(50);
      return w;
    }
  } client;
  hv_.set_partition_client(p1_, &client);
  hv_.start();
  // p0 is active; notifying for p1 must not dispatch p1's work now.
  sim_.schedule_at(TimePoint::at_us(100), [&] {
    client.ready = true;
    hv_.notify_work_available(p1_);
  });
  sim_.run_until(TimePoint::at_us(900));
  EXPECT_EQ(hv_.partition(p1_).guest_time(), Duration::zero());
  sim_.run_until(TimePoint::at_us(1200));
  EXPECT_GT(hv_.partition(p1_).guest_time(), Duration::zero());
}

TEST_F(HypercallTest, NotifyDuringCompletionCallbackDoesNotDoubleDispatch) {
  // Regression: a wake notification issued from inside a bottom-handler
  // completion callback must not dispatch while the engine's own dispatch
  // continuation is still unwinding (it used to trip assert(!running_)).
  IrqSourceConfig cfg;
  cfg.name = "src";
  cfg.line = 1;
  cfg.subscriber = p0_;
  cfg.c_top = Duration::us(5);
  cfg.c_bottom = Duration::us(20);
  hv_.add_irq_source(cfg);
  auto& timer = platform_.add_timer(1);

  struct NotifyingClient : PartitionClient {
    Hypervisor* hv = nullptr;
    PartitionId self = 0;
    bool work_ready = false;
    std::uint64_t units = 0;
    std::optional<WorkUnit> next_work(TimePoint) override {
      if (!work_ready) return std::nullopt;
      work_ready = false;
      WorkUnit w;
      w.remaining = Duration::us(30);
      return w;
    }
    void on_work_complete() override { ++units; }
    void on_bottom_handler_complete(const IrqEvent&) override {
      work_ready = true;
      hv->notify_work_available(self);  // fires mid-completion processing
    }
  } client;
  client.hv = &hv_;
  client.self = p0_;
  hv_.set_partition_client(p0_, &client);
  hv_.start();
  sim_.schedule_at(TimePoint::at_us(100), [&timer] { timer.program(Duration::zero()); });
  sim_.run_until(TimePoint::at_us(1000));
  // BH at [105,125); the follow-up unit runs [125,155) via the engine's own
  // dispatch, exactly once.
  EXPECT_EQ(client.units, 1u);
}

}  // namespace
}  // namespace rthv::hv
