// Para-virtualized guest operating system.
//
// A minimal fixed-priority kernel that runs inside one application
// partition. It supplies task-level work to the hypervisor's dispatcher
// through the PartitionClient interface; IRQ bottom handlers are executed
// by the hypervisor ahead of task work (paper Fig. 2), and the kernel is
// notified of each completed bottom handler so guest code can react (e.g.
// activate an event-driven task).
//
// Scheduling model: strict fixed priorities, work handed to the hypervisor
// in chunks of at most `quantum` so that a newly released higher-priority
// job preempts at the next chunk boundary. Periodic releases are zero-cost
// bookkeeping events on the simulator (a guest timer tick); they take
// effect only when the partition is scheduled, exactly like a virtual
// timer IRQ delivered via the partition's queue would.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "hv/types.hpp"
#include "sim/simulator.hpp"
#include "sim/state_io.hpp"

namespace rthv::guest {

using TaskId = std::uint32_t;

struct GuestTaskConfig {
  std::string name;
  std::uint32_t priority = 0;  // lower number = higher priority
  sim::Duration budget;        // execution demand per activation
  /// Zero period = background task (always ready, re-arms itself) unless
  /// `event_driven` is set, in which case the task only runs when
  /// activate() is called (e.g. from a bottom-handler callback).
  sim::Duration period;
  bool event_driven = false;
  sim::Duration phase;         // first release offset (periodic tasks)
  /// Maximum chunk of work handed to the hypervisor at once; zero = whole
  /// remaining job in one unit. The chunk boundary is where another task's
  /// release preempts, so a kernel whose only task is this one ignores the
  /// quantum and hands the whole remaining job over in one unit.
  sim::Duration quantum;
  /// Relative deadline checked at job completion; zero = none (no deadline
  /// monitoring for this task).
  sim::Duration deadline;
};

class GuestKernel final : public hv::PartitionClient {
 public:
  GuestKernel(sim::Simulator& simulator, std::string name);

  TaskId add_task(const GuestTaskConfig& config);

  /// Arms the periodic release events. Call once before the simulation runs.
  void start();

  /// Releases one job of an event-driven task (queued releases accumulate:
  /// activating a task with an unfinished job counts a pending activation
  /// served back-to-back, like a semaphore).
  void activate(TaskId t);

  // --- PartitionClient -----------------------------------------------------
  std::optional<hv::WorkUnit> next_work(sim::TimePoint now) override;
  void on_bottom_handler_complete(const hv::IrqEvent& event) override;
  /// Retires the outstanding chunk: finishes its job when the job's demand
  /// is used up (deadline check, re-arm or block, job callback).
  void on_work_complete() override;

  // --- guest-level hooks -----------------------------------------------------
  using BottomHandlerCallback = std::function<void(const hv::IrqEvent&)>;
  void set_bottom_handler_callback(BottomHandlerCallback cb) { bh_callback_ = std::move(cb); }

  using JobCompleteCallback = std::function<void(TaskId, sim::TimePoint)>;
  void set_job_complete_callback(JobCompleteCallback cb) { job_callback_ = std::move(cb); }

  /// Invoked whenever a release makes work runnable; wire this to
  /// hv::Hypervisor::notify_work_available so an idle partition resumes
  /// dispatching immediately (the guest-timer-interrupt analogue).
  void set_wake_callback(std::function<void()> cb) { wake_callback_ = std::move(cb); }

  // --- queries ---------------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  [[nodiscard]] std::uint64_t jobs_released(TaskId t) const { return tasks_.at(t).released; }
  [[nodiscard]] std::uint64_t jobs_completed(TaskId t) const { return tasks_.at(t).completed; }
  [[nodiscard]] std::uint64_t overruns(TaskId t) const { return tasks_.at(t).overruns; }
  [[nodiscard]] std::uint64_t deadline_misses(TaskId t) const {
    return tasks_.at(t).deadline_misses;
  }
  [[nodiscard]] std::uint64_t bottom_handlers_seen() const { return bh_seen_; }

  /// Invoked when a job completes after its (release + deadline).
  using DeadlineMissCallback = std::function<void(TaskId, sim::TimePoint)>;
  void set_deadline_miss_callback(DeadlineMissCallback cb) {
    deadline_callback_ = std::move(cb);
  }

  /// Checkpoint of the kernel's scheduling state. Release events pending on
  /// the simulator are captured by the simulator snapshot; task configs and
  /// callbacks are structural/wiring.
  void snapshot_state(sim::StateWriter& w) const {
    w.u64(tasks_.size());
    for (const Task& t : tasks_) {
      w.boolean(t.ready);
      w.pod(t.job_remaining);
      w.pod(t.release_time);
      w.u64(t.released);
      w.u64(t.completed);
      w.u64(t.overruns);
      w.u64(t.deadline_misses);
      w.u64(t.pending_activations);
    }
    w.boolean(started_);
    w.u64(bh_seen_);
    w.u64(rr_cursor_);
    w.u64(chunk_task_);
    w.pod(chunk_size_);
  }
  void restore_state(sim::StateReader& r) {
    const std::uint64_t n = r.u64();
    assert(n == tasks_.size() && "GuestKernel task set changed across restore");
    (void)n;
    for (Task& t : tasks_) {
      t.ready = r.boolean();
      t.job_remaining = r.pod<sim::Duration>();
      t.release_time = r.pod<sim::TimePoint>();
      t.released = r.u64();
      t.completed = r.u64();
      t.overruns = r.u64();
      t.deadline_misses = r.u64();
      t.pending_activations = r.u64();
    }
    started_ = r.boolean();
    bh_seen_ = r.u64();
    rr_cursor_ = r.u64();
    chunk_task_ = static_cast<TaskId>(r.u64());
    chunk_size_ = r.pod<sim::Duration>();
  }

 private:
  struct Task {
    GuestTaskConfig cfg;
    bool ready = false;
    sim::Duration job_remaining;
    sim::TimePoint release_time;  // of the current job
    std::uint64_t released = 0;
    std::uint64_t completed = 0;
    std::uint64_t overruns = 0;  // release met an unfinished previous job
    std::uint64_t deadline_misses = 0;
    std::uint64_t pending_activations = 0;  // event-driven backlog
  };

  void release(TaskId id);
  void schedule_next_release(TaskId id, sim::TimePoint at);
  [[nodiscard]] TaskId pick_ready() const;
  static constexpr TaskId kNone = std::numeric_limits<TaskId>::max();

  sim::Simulator& sim_;
  std::string name_;  // lint: transient(construction-time label; never mutated)
  std::vector<Task> tasks_;
  bool started_ = false;
  BottomHandlerCallback bh_callback_;  // lint: transient(owner wiring, re-established at system assembly)
  JobCompleteCallback job_callback_;  // lint: transient(owner wiring, re-established at system assembly)
  std::function<void()> wake_callback_;  // lint: transient(owner wiring, re-established at system assembly)
  DeadlineMissCallback deadline_callback_;  // lint: transient(owner wiring, re-established at system assembly)
  std::uint64_t bh_seen_ = 0;
  std::uint64_t rr_cursor_ = 0;  // rotation point for equal priorities
  // The single outstanding work unit's bookkeeping (see next_work()).
  TaskId chunk_task_ = 0;
  sim::Duration chunk_size_;
};

}  // namespace rthv::guest
