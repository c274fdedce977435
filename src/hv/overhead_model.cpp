#include "hv/overhead_model.hpp"

namespace rthv::hv {

OverheadModel::OverheadModel(const hw::CpuModel& cpu, const hw::MemorySystem& memory,
                             const OverheadConfig& config)
    : cfg_(config), ctx_raw_(memory.context_switch_cost()) {
  c_mon_ = cpu.instructions_to_duration(cfg_.monitor_instructions);
  c_sched_ = cpu.instructions_to_duration(cfg_.sched_manipulation_instructions);
  c_ctx_ = cpu.instructions_to_duration(ctx_raw_.invalidate_instructions) +
           cpu.cycles_to_duration(ctx_raw_.writeback_cycles);
  c_tick_ = cpu.instructions_to_duration(cfg_.tdma_tick_instructions);
}

}  // namespace rthv::hv
