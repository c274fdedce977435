// Hypervisor overhead budgets (paper Section 5 / 6.2).
//
// All budgets are expressed the way the paper reports them -- instruction
// counts (executed at the CPU model's CPI) plus raw cycles for memory
// effects -- and converted to simulated time on demand:
//
//   C_Mon    = 128 instructions   (monitoring function incl. scheduler call)
//   C_sched  = 877 instructions   (scheduler manipulation for interposing)
//   C_ctx    = 5000 instructions  (cache/TLB invalidation)
//              + 5000 cycles      (cache writebacks, memory-layout specific)
//   TDMA tick = 100 instructions  (slot-switch decision; not reported in the
//                                  paper, small and configurable)
#pragma once

#include <cstdint>

#include "analysis/irq_latency.hpp"
#include "hw/cpu_model.hpp"
#include "hw/memory_system.hpp"
#include "sim/time.hpp"

namespace rthv::hv {

struct OverheadConfig {
  std::uint64_t monitor_instructions = 128;
  std::uint64_t sched_manipulation_instructions = 877;
  std::uint64_t tdma_tick_instructions = 100;
};

/// Converts the configured budgets into durations for a concrete platform.
class OverheadModel {
 public:
  OverheadModel(const hw::CpuModel& cpu, const hw::MemorySystem& memory,
                const OverheadConfig& config = {});

  [[nodiscard]] sim::Duration monitor_cost() const { return c_mon_; }            // C_Mon
  [[nodiscard]] sim::Duration sched_manipulation_cost() const { return c_sched_; }  // C_sched
  [[nodiscard]] sim::Duration context_switch_cost() const { return c_ctx_; }     // C_ctx
  [[nodiscard]] sim::Duration tdma_tick_cost() const { return c_tick_; }

  /// The constants Eqs. 13-16 read (analysis::effective_bottom_cost and
  /// analysis::effective_top_cost turn them into C'_BH and C'_TH).
  [[nodiscard]] analysis::OverheadTimes times() const { return {c_mon_, c_sched_, c_ctx_}; }

  [[nodiscard]] const OverheadConfig& config() const { return cfg_; }
  [[nodiscard]] hw::ContextSwitchCost raw_context_switch_cost() const { return ctx_raw_; }

 private:
  OverheadConfig cfg_;
  hw::ContextSwitchCost ctx_raw_;
  sim::Duration c_mon_;
  sim::Duration c_sched_;
  sim::Duration c_ctx_;
  sim::Duration c_tick_;
};

}  // namespace rthv::hv
