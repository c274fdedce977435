// Aggregate of the simulated hardware platform.
//
// Owns the CPU model, interrupt controller, memory system and a set of
// hardware timers. One instance models one *core*: standalone it is the
// paper's single-core ARM926ej-s evaluation board; on the multi-core
// platform, core::MulticoreSystem assembles one Platform per core and
// couples them through a borrowed hw::SharedInterconnect (see
// hw/multicore/interconnect.hpp), identified by core_id().
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "hw/cpu_model.hpp"
#include "hw/hw_timer.hpp"
#include "hw/interrupt_controller.hpp"
#include "hw/memory_system.hpp"
#include "hw/multicore/interconnect.hpp"
#include "sim/simulator.hpp"

namespace rthv::hw {

struct PlatformConfig {
  std::uint64_t cpu_freq_hz = 200'000'000;  // ARM926ej-s @ 200 MHz
  std::uint32_t cpi_milli = 1000;           // 1.0 cycles per instruction
  std::uint32_t num_irq_lines = 32;
  std::uint64_t ctx_invalidate_instructions = 5000;
  std::uint64_t ctx_writeback_cycles = 5000;
};

class Platform {
 public:
  Platform(sim::Simulator& simulator, const PlatformConfig& config = {});

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] CpuModel& cpu() { return cpu_; }
  [[nodiscard]] const CpuModel& cpu() const { return cpu_; }
  [[nodiscard]] InterruptController& intc() { return intc_; }
  [[nodiscard]] const InterruptController& intc() const { return intc_; }
  [[nodiscard]] MemorySystem& memory() { return memory_; }
  [[nodiscard]] TimestampTimer& timestamp_timer() { return timestamp_; }

  /// Couples this platform to a shared interconnect as core `core_id`.
  /// Called once by the multi-core assembly; single-core systems leave the
  /// platform detached (interconnect() == nullptr, core_id() == 0) and pay
  /// no contention anywhere.
  void attach_interconnect(SharedInterconnect* interconnect, std::uint32_t core_id) {
    if (interconnect != nullptr && core_id >= interconnect->num_cores()) {
      throw std::invalid_argument("Platform::attach_interconnect: core id out of range");
    }
    interconnect_ = interconnect;
    core_id_ = interconnect == nullptr ? 0 : core_id;
  }
  [[nodiscard]] SharedInterconnect* interconnect() const { return interconnect_; }
  [[nodiscard]] std::uint32_t core_id() const { return core_id_; }

  /// Creates a timer attached to an IRQ line. The platform owns the timer.
  HwTimer& add_timer(IrqLine line);

  [[nodiscard]] std::size_t num_timers() const { return timers_.size(); }
  [[nodiscard]] HwTimer& timer(std::size_t i) { return *timers_.at(i); }

  /// Checkpoint of all mutable hardware state (CPU accounting, controller
  /// latches, timer arming). The timer population must match between
  /// snapshot and restore -- timers are structural, created at system
  /// configuration/startup, never mid-run.
  void snapshot_state(sim::StateWriter& w) const {
    cpu_.snapshot_state(w);
    intc_.snapshot_state(w);
    w.u64(timers_.size());
    for (const auto& t : timers_) t->snapshot_state(w);
  }
  void restore_state(sim::StateReader& r) {
    cpu_.restore_state(r);
    intc_.restore_state(r);
    const std::uint64_t n = r.u64();
    if (n != timers_.size()) {
      throw std::logic_error("Platform::restore_state: timer count mismatch");
    }
    for (auto& t : timers_) t->restore_state(r);
  }

 private:
  sim::Simulator& sim_;
  CpuModel cpu_;
  InterruptController intc_;
  MemorySystem memory_;  // lint: transient(pure configuration model; no mutable state)
  TimestampTimer timestamp_;  // lint: transient(stateless view over the simulator clock)
  std::vector<std::unique_ptr<HwTimer>> timers_;
  // lint: transient(borrowed shared model; MulticoreSystem snapshots it once)
  SharedInterconnect* interconnect_ = nullptr;
  std::uint32_t core_id_ = 0;  // lint: transient(structural wiring, set at assembly)
};

}  // namespace rthv::hw
