#include "hv/overhead_model.hpp"

#include <gtest/gtest.h>

namespace rthv::hv {
namespace {

using sim::Duration;

TEST(OverheadModelTest, PaperDefaultsOnPaperPlatform) {
  const hw::CpuModel cpu;        // 200 MHz
  const hw::MemorySystem mem;    // 5000 instr + 5000 cycles
  const OverheadModel oh(cpu, mem);
  EXPECT_EQ(oh.monitor_cost(), Duration::ns(640));              // 128 instr
  EXPECT_EQ(oh.sched_manipulation_cost(), Duration::ns(4385));  // 877 instr
  EXPECT_EQ(oh.context_switch_cost(), Duration::us(50));
  EXPECT_EQ(oh.tdma_tick_cost(), Duration::ns(500));            // 100 instr
}

TEST(OverheadModelTest, EffectiveBottomCostEq13) {
  const hw::CpuModel cpu;
  const hw::MemorySystem mem;
  const OverheadModel oh(cpu, mem);
  // C'_BH = C_BH + C_sched + 2*C_ctx = 40 + 4.385 + 100 us.
  EXPECT_EQ(analysis::effective_bottom_cost(Duration::us(40), oh.times()),
            Duration::ns(144'385));
}

TEST(OverheadModelTest, EffectiveTopCostEq15) {
  const hw::CpuModel cpu;
  const hw::MemorySystem mem;
  const OverheadModel oh(cpu, mem);
  EXPECT_EQ(analysis::effective_top_cost(Duration::us(5), oh.times()), Duration::ns(5'640));
}

TEST(OverheadModelTest, CustomBudgetsAndPlatform) {
  const hw::CpuModel cpu(100'000'000);  // 10 ns per cycle
  const hw::MemorySystem mem(1000, 500);
  OverheadConfig cfg;
  cfg.monitor_instructions = 50;
  cfg.sched_manipulation_instructions = 100;
  cfg.tdma_tick_instructions = 10;
  const OverheadModel oh(cpu, mem, cfg);
  EXPECT_EQ(oh.monitor_cost(), Duration::ns(500));
  EXPECT_EQ(oh.sched_manipulation_cost(), Duration::us(1));
  EXPECT_EQ(oh.tdma_tick_cost(), Duration::ns(100));
  EXPECT_EQ(oh.context_switch_cost(), Duration::us(10) + Duration::us(5));
  EXPECT_EQ(oh.raw_context_switch_cost().invalidate_instructions, 1000u);
  EXPECT_EQ(oh.raw_context_switch_cost().writeback_cycles, 500u);
}

TEST(OverheadModelTest, ConfigAccessor) {
  const hw::CpuModel cpu;
  const hw::MemorySystem mem;
  const OverheadModel oh(cpu, mem);
  EXPECT_EQ(oh.config().monitor_instructions, 128u);
  EXPECT_EQ(oh.config().sched_manipulation_instructions, 877u);
}

}  // namespace
}  // namespace rthv::hv
