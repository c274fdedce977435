#include "core/system_config.hpp"

namespace rthv::core {

using sim::Duration;

mon::DeltaVector IrqSourceSpec::enforced_deltas() const {
  switch (monitor) {
    case MonitorKind::kDeltaMin: return {d_min};
    case MonitorKind::kDeltaVector: return delta_vector;
    default: return {};
  }
}

std::vector<ScheduleSlot> SystemConfig::tdma_slots() const {
  if (!schedule.empty()) return schedule;
  std::vector<ScheduleSlot> slots;
  for (std::uint32_t p = 0; p < partitions.size(); ++p) {
    slots.push_back({p, partitions[p].slot_length});
  }
  return slots;
}

Duration SystemConfig::tdma_cycle() const {
  Duration total = Duration::zero();
  for (const auto& s : tdma_slots()) total += s.length;
  return total;
}

SystemConfig SystemConfig::paper_baseline() {
  SystemConfig cfg;
  cfg.partitions = {
      {"partition-1", Duration::us(6000), true},
      {"partition-2", Duration::us(6000), true},
      {"housekeeping", Duration::us(2000), false},
  };
  IrqSourceSpec src;
  src.name = "irq-under-test";
  src.subscriber = 1;  // partition-2 processes the monitored IRQ
  src.c_top = Duration::us(kBaselineTopUs);
  src.c_bottom = Duration::us(kBaselineBottomUs);
  cfg.sources.push_back(src);
  return cfg;
}

}  // namespace rthv::core
