#include "hw/interrupt_controller.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rthv::hw {
namespace {

/// Installs `entry` (a callable that outlives the controller's use of it)
/// as the controller's raw IRQ entry.
template <typename F>
void set_entry(InterruptController& intc, F& entry) {
  intc.set_irq_entry_raw([](void* ctx) { (*static_cast<F*>(ctx))(); }, &entry);
}

TEST(InterruptControllerTest, RaiseSetsPending) {
  InterruptController intc(4);
  intc.set_cpu_irq_enabled(false);
  EXPECT_TRUE(intc.raise(2));
  EXPECT_TRUE(intc.pending(2));
  EXPECT_FALSE(intc.pending(1));
}

TEST(InterruptControllerTest, NonCountingLatchLosesSecondRaise) {
  InterruptController intc(4);
  intc.set_cpu_irq_enabled(false);
  EXPECT_TRUE(intc.raise(1));
  EXPECT_FALSE(intc.raise(1));  // still pending: the raise is lost
  EXPECT_EQ(intc.lost_raises(), 1u);
  EXPECT_EQ(intc.lost_raises(1), 1u);
  EXPECT_EQ(intc.lost_raises(0), 0u);
  EXPECT_EQ(intc.raises(), 2u);
}

TEST(InterruptControllerTest, AcknowledgeClearsPending) {
  InterruptController intc(4);
  intc.set_cpu_irq_enabled(false);
  intc.raise(3);
  intc.acknowledge(3);
  EXPECT_FALSE(intc.pending(3));
  EXPECT_TRUE(intc.raise(3));  // can latch again
}

TEST(InterruptControllerTest, HighestPendingIsLowestLineNumber) {
  InterruptController intc(8);
  intc.set_cpu_irq_enabled(false);
  intc.raise(5);
  intc.raise(2);
  intc.raise(7);
  ASSERT_TRUE(intc.highest_pending().has_value());
  EXPECT_EQ(*intc.highest_pending(), 2u);
}

TEST(InterruptControllerTest, DeliveryOnRaiseWhenEnabled) {
  InterruptController intc(4);
  int entries = 0;
  auto entry = [&] {
    ++entries;
    intc.set_cpu_irq_enabled(false);
    intc.acknowledge(*intc.highest_pending());
  };
  set_entry(intc, entry);
  intc.raise(2);
  EXPECT_EQ(entries, 1);
}

TEST(InterruptControllerTest, NoDeliveryWhileCpuIrqDisabled) {
  InterruptController intc(4);
  int entries = 0;
  auto entry = [&] {
    ++entries;
    intc.set_cpu_irq_enabled(false);
    intc.acknowledge(*intc.highest_pending());
  };
  set_entry(intc, entry);
  intc.set_cpu_irq_enabled(false);
  intc.raise(2);
  EXPECT_EQ(entries, 0);
  intc.set_cpu_irq_enabled(true);  // latched IRQ delivered on enable
  EXPECT_EQ(entries, 1);
}

TEST(InterruptControllerTest, SequentialServiceOfMultiplePending) {
  InterruptController intc(4);
  std::vector<IrqLine> serviced;
  auto entry = [&] {
    intc.set_cpu_irq_enabled(false);
    const auto line = *intc.highest_pending();
    serviced.push_back(line);
    intc.acknowledge(line);
    intc.set_cpu_irq_enabled(true);  // service chain continues
  };
  set_entry(intc, entry);
  intc.set_cpu_irq_enabled(false);
  intc.raise(3);
  intc.raise(1);
  intc.set_cpu_irq_enabled(true);
  EXPECT_EQ(serviced, (std::vector<IrqLine>{1, 3}));
}

}  // namespace
}  // namespace rthv::hw
