// Application partition bookkeeping.
//
// A partition is "nothing else than a task to the hypervisor's scheduler"
// (Section 4): it owns an interrupt-event queue, the saved state of
// whatever work was preempted, and accounting counters. Guest-level
// behaviour is supplied through a PartitionClient.
#pragma once

#include <optional>
#include <string>

#include "hv/irq_queue.hpp"
#include "hv/types.hpp"

namespace rthv::hv {

class Partition {
 public:
  Partition(PartitionId id, std::string name, std::size_t irq_queue_capacity = 64);

  [[nodiscard]] PartitionId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] IrqQueue& irq_queue() { return irq_queue_; }
  [[nodiscard]] const IrqQueue& irq_queue() const { return irq_queue_; }

  void set_client(PartitionClient* client) { client_ = client; }
  [[nodiscard]] PartitionClient* client() const { return client_; }

  /// A bottom handler whose execution started but was preempted (or whose
  /// interpose budget expired before completion). Resumes ahead of new
  /// queue events to preserve FIFO order.
  std::optional<WorkUnit> bh_in_progress;

  /// Guest task work preempted by an IRQ or slot end.
  std::optional<WorkUnit> saved_guest_work;

  // --- accounting ---------------------------------------------------------
  void account_bh_time(sim::Duration d) { bh_time_ += d; }
  void account_guest_time(sim::Duration d) { guest_time_ += d; }
  [[nodiscard]] sim::Duration bh_time() const { return bh_time_; }
  [[nodiscard]] sim::Duration guest_time() const { return guest_time_; }

  void count_bh_completion() { ++bh_completions_; }
  [[nodiscard]] std::uint64_t bh_completions() const { return bh_completions_; }

  /// Checkpoint of the saved work and the accounting; both work slots are
  /// plain data and go into the word stream like everything else.
  void snapshot_state(sim::StateWriter& w) const {
    w.boolean(bh_in_progress.has_value());
    if (bh_in_progress) w.pod(*bh_in_progress);
    w.boolean(saved_guest_work.has_value());
    if (saved_guest_work) w.pod(*saved_guest_work);
    irq_queue_.snapshot_state(w);
    w.pod(bh_time_);
    w.pod(guest_time_);
    w.u64(bh_completions_);
  }
  void restore_state(sim::StateReader& r) {
    bh_in_progress.reset();
    if (r.boolean()) bh_in_progress = r.pod<WorkUnit>();
    saved_guest_work.reset();
    if (r.boolean()) saved_guest_work = r.pod<WorkUnit>();
    irq_queue_.restore_state(r);
    bh_time_ = r.pod<sim::Duration>();
    guest_time_ = r.pod<sim::Duration>();
    bh_completions_ = r.u64();
  }

 private:
  PartitionId id_;  // lint: transient(structural identity fixed at construction)
  std::string name_;  // lint: transient(construction-time label; never mutated)
  IrqQueue irq_queue_;
  PartitionClient* client_ = nullptr;  // lint: transient(guest wiring, re-established at system assembly)
  sim::Duration bh_time_;
  sim::Duration guest_time_;
  std::uint64_t bh_completions_ = 0;
};

}  // namespace rthv::hv
