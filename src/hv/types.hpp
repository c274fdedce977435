// Shared vocabulary types of the hypervisor.
#pragma once

#include <cstdint>
#include <optional>

#include "hw/cpu_model.hpp"
#include "sim/time.hpp"

namespace rthv::hv {

/// Index of a partition in the hypervisor's partition table.
using PartitionId = std::uint32_t;
inline constexpr PartitionId kInvalidPartition = UINT32_MAX;

/// Index of an IRQ source in the hypervisor's source table.
using IrqSourceId = std::uint32_t;

/// One "emulated IRQ" pushed into a partition's interrupt queue (paper
/// Fig. 2, step 4). Carries the timestamps needed for latency measurement:
/// the paper measures from top-handler activation to bottom-handler end.
struct IrqEvent {
  IrqSourceId source = 0;
  std::uint64_t seq = 0;              // per-source sequence number
  sim::TimePoint raise_time;          // hardware line raised
  sim::TimePoint th_start;            // top-handler activation (measurement start)
  bool arrived_in_own_slot = false;   // subscriber's slot was active at arrival
  bool admitted_interpose = false;    // monitor admitted interposing at arrival
};

/// A unit of partition-context CPU work (guest task code or a bottom
/// handler). `remaining` is execution demand, decremented as the engine
/// runs the work; preemption never loses progress. Plain data: a preempted
/// unit is saved state, checkpointed word for word.
struct WorkUnit {
  hw::WorkCategory category = hw::WorkCategory::kGuest;
  sim::Duration remaining;
  /// The event a bottom-handler unit is processing.
  std::optional<IrqEvent> event;
};

/// Interface a guest OS implements to supply task-level work to the
/// hypervisor's dispatcher. Bottom handlers are generated by the hypervisor
/// from the IRQ queue and take precedence; `next_work` is only consulted
/// when no IRQ processing is pending.
class PartitionClient {
 public:
  virtual ~PartitionClient() = default;

  /// Returns the next runnable guest work unit, or std::nullopt to idle.
  virtual std::optional<WorkUnit> next_work(sim::TimePoint now) = 0;

  /// Notification that an IRQ bottom handler for `event` completed in this
  /// partition (guest-visible IRQ delivery).
  virtual void on_bottom_handler_complete(const IrqEvent& event) { (void)event; }

  /// Notification, in partition context, that the guest unit last returned
  /// by next_work() finished (never sent when it is merely preempted).
  virtual void on_work_complete() {}
};

}  // namespace rthv::hv
