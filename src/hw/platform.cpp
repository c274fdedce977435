#include "hw/platform.hpp"

namespace rthv::hw {

Platform::Platform(sim::Simulator& simulator, const PlatformConfig& config)
    : sim_(simulator),
      cpu_(config.cpu_freq_hz, config.cpi_milli),
      intc_(config.num_irq_lines),
      memory_(config.ctx_invalidate_instructions, config.ctx_writeback_cycles),
      timestamp_(simulator) {
  intc_.set_clock(&sim_);
}

HwTimer& Platform::add_timer(IrqLine line) {
  timers_.push_back(std::make_unique<HwTimer>(sim_, intc_, line));
  return *timers_.back();
}

}  // namespace rthv::hw
