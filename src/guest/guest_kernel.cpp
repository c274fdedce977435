#include "guest/guest_kernel.hpp"

#include <algorithm>
#include <cassert>

namespace rthv::guest {

using sim::Duration;
using sim::TimePoint;

GuestKernel::GuestKernel(sim::Simulator& simulator, std::string name)
    : sim_(simulator), name_(std::move(name)) {}

TaskId GuestKernel::add_task(const GuestTaskConfig& config) {
  assert(!started_);
  assert(config.budget.is_positive());
  assert(!config.period.is_negative());
  assert(!config.phase.is_negative());
  assert(!config.quantum.is_negative());
  const auto id = static_cast<TaskId>(tasks_.size());
  Task t;
  t.cfg = config;
  assert(!(config.event_driven && config.period.is_positive()) &&
         "a task is either periodic or event-driven");
  if (config.period.is_zero() && !config.event_driven) {
    // Background task: immediately and permanently ready.
    t.ready = true;
    t.job_remaining = config.budget;
    t.released = 1;
  }
  tasks_.push_back(std::move(t));
  return id;
}

void GuestKernel::start() {
  assert(!started_);
  started_ = true;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    if (tasks_[id].cfg.period.is_positive()) {
      schedule_next_release(id, sim_.now() + tasks_[id].cfg.phase);
    }
  }
}

void GuestKernel::schedule_next_release(TaskId id, TimePoint at) {
  sim_.schedule_at(at, [this, id, at] {
    release(id);
    schedule_next_release(id, at + tasks_[id].cfg.period);
  });
}

void GuestKernel::release(TaskId id) {
  Task& t = tasks_[id];
  if (t.ready || t.job_remaining.is_positive()) {
    // Previous job still unfinished: count the overrun, skip this release.
    ++t.overruns;
    return;
  }
  t.ready = true;
  t.job_remaining = t.cfg.budget;
  t.release_time = sim_.now();
  ++t.released;
  if (wake_callback_) wake_callback_();
}

void GuestKernel::activate(TaskId id) {
  Task& t = tasks_.at(id);
  assert(t.cfg.event_driven && "activate() is only valid for event-driven tasks");
  if (t.ready || t.job_remaining.is_positive()) {
    ++t.pending_activations;  // served back-to-back after the current job
    return;
  }
  t.ready = true;
  t.job_remaining = t.cfg.budget;
  t.release_time = sim_.now();
  ++t.released;
  if (wake_callback_) wake_callback_();
}

TaskId GuestKernel::pick_ready() const {
  // Strict fixed priority; equal priorities are served round-robin from
  // rr_cursor_ so an always-ready task cannot starve its peers.
  TaskId best = kNone;
  std::uint32_t best_prio = 0;
  const auto n = static_cast<TaskId>(tasks_.size());
  for (TaskId k = 0; k < n; ++k) {
    const TaskId id = static_cast<TaskId>((rr_cursor_ + k) % n);
    const Task& t = tasks_[id];
    if (!t.ready) continue;
    if (best == kNone || t.cfg.priority < best_prio) {
      best = id;
      best_prio = t.cfg.priority;
    }
  }
  return best;
}

std::optional<hv::WorkUnit> GuestKernel::next_work(TimePoint) {
  const TaskId id = pick_ready();
  if (id == kNone) return std::nullopt;
  Task& t = tasks_[id];
  Duration chunk = t.job_remaining;
  // The quantum bounds how long another task's release can wait before the
  // running job reaches a chunk boundary and the dispatcher re-picks. A
  // kernel with a single task has no such other release: hand the whole
  // remaining job over in one unit (the hypervisor still preempts it at
  // IRQs and slot boundaries) instead of paying one simulator event per
  // quantum for a preemption point nothing can ever use.
  if (t.cfg.quantum.is_positive() && tasks_.size() > 1) {
    chunk = std::min(chunk, t.cfg.quantum);
  }
  assert(chunk.is_positive());

  // Exactly one work unit is outstanding at a time (the hypervisor asks for
  // the next only after the previous completed), so the chunk bookkeeping
  // lives in members and the unit itself is plain data.
  chunk_task_ = id;
  chunk_size_ = chunk;
  hv::WorkUnit work;
  work.category = hw::WorkCategory::kGuest;
  work.remaining = chunk;
  return work;
}

void GuestKernel::on_work_complete() {
  const TaskId id = chunk_task_;
  Task& task = tasks_[id];
  task.job_remaining -= chunk_size_;
  if (task.job_remaining.is_positive()) return;
  ++task.completed;
  rr_cursor_ = id + 1;  // rotate equal-priority service
  if (task.cfg.deadline.is_positive() && task.cfg.period.is_positive() &&
      sim_.now() > task.release_time + task.cfg.deadline) {
    ++task.deadline_misses;
    if (deadline_callback_) deadline_callback_(id, sim_.now());
  }
  if (task.cfg.event_driven) {
    if (task.pending_activations > 0) {
      --task.pending_activations;
      task.job_remaining = task.cfg.budget;
      task.release_time = sim_.now();
      ++task.released;
    } else {
      task.ready = false;
    }
  } else if (task.cfg.period.is_zero()) {
    // Background task re-arms immediately.
    task.job_remaining = task.cfg.budget;
    ++task.released;
  } else {
    task.ready = false;
  }
  if (job_callback_) job_callback_(id, sim_.now());
}

void GuestKernel::on_bottom_handler_complete(const hv::IrqEvent& event) {
  ++bh_seen_;
  if (bh_callback_) bh_callback_(event);
}

}  // namespace rthv::guest
