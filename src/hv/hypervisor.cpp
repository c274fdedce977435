#include "hv/hypervisor.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/state_io.hpp"

namespace rthv::hv {

using obs::TraceCategory;
using obs::TracePoint;
using sim::Duration;
using sim::TimePoint;
using Reason = Hypervisor::ContextChange::Reason;

Hypervisor::Hypervisor(hw::Platform& platform, const OverheadConfig& overheads)
    : platform_(platform), overheads_(platform.cpu(), platform.memory(), overheads) {
  lines_.resize(platform_.intc().num_lines());
}

PartitionId Hypervisor::add_partition(std::string name, std::size_t irq_queue_capacity) {
  assert(!started_);
  const auto id = static_cast<PartitionId>(partitions_.size());
  partitions_.emplace_back(id, std::move(name), irq_queue_capacity);
  part_color_mask_.push_back(0xFFFF'FFFFu);  // uncolored by default
  part_mem_apu_.push_back(0);
  return id;
}

void Hypervisor::set_schedule(std::vector<TdmaSlot> slots) {
  assert(!started_);
#ifndef NDEBUG
  for (const auto& s : slots) assert(s.partition < partitions_.size());
#endif
  scheduler_ = std::make_unique<TdmaScheduler>(std::move(slots));
}

IrqSourceId Hypervisor::add_irq_source(const IrqSourceConfig& config) {
  assert(!started_);
  assert(config.line != tdma_line_ && "line 0 is reserved for the TDMA timer");
  // Runtime check, not just an assert: config.line indexes the line table
  // below, so an out-of-range value from a bad experiment config would be an
  // out-of-bounds write in release builds.
  if (config.line >= platform_.intc().num_lines()) {
    throw std::out_of_range("add_irq_source: IRQ line " + std::to_string(config.line) +
                            " out of range (interrupt controller has " +
                            std::to_string(platform_.intc().num_lines()) + " lines)");
  }
  assert(config.subscriber < partitions_.size());
  assert(config.c_top.is_positive());
  assert(config.c_bottom.is_positive());
  assert(lines_.at(config.line) == kInvalidSource && "one source per IRQ line");
  const IrqSourceId id = srcs_.add(config.subscriber, config.c_top, config.c_bottom);
  srcs_.bh_accesses[id] = config.bh_accesses;
  srcs_.admit_d_min[id] = config.admit_d_min;
  srcs_.c_bh_eff[id] = analysis::effective_bottom_cost(config.c_bottom, overheads_.times());
  source_configs_.push_back(config);
  owned_monitors_.emplace_back();
  lines_.source[config.line] = id;
  return id;
}

void Hypervisor::set_monitor(IrqSourceId source,
                             std::unique_ptr<mon::ActivationMonitor> monitor) {
  owned_monitors_.at(source) = std::move(monitor);
  srcs_.monitor.at(source) = owned_monitors_[source].get();
}

void Hypervisor::set_partition_client(PartitionId p, PartitionClient* client) {
  partitions_.at(p).set_client(client);
}

void Hypervisor::set_partition_memory(PartitionId p, std::uint32_t color_mask,
                                      std::uint64_t mem_accesses_per_us) {
  assert(!started_);
  part_color_mask_.at(p) = color_mask;
  part_mem_apu_.at(p) = mem_accesses_per_us;
}

sim::TimePoint Hypervisor::normalized_observation(IrqSourceId sid, TimePoint raise) {
  std::int64_t t = raise.count_ns() - srcs_.infl_acc[sid].count_ns();
  // Monotonicity clamp: a raise landing closer than the accumulated shift
  // would step the normalized clock backwards; clamping pins the observed
  // distance at zero, which any delta^- monitor with a positive bound
  // denies -- exactly the conservative verdict.
  if (t < srcs_.last_norm_ns[sid]) t = srcs_.last_norm_ns[sid];
  srcs_.last_norm_ns[sid] = t;
  return TimePoint::at_ns(t);
}

void Hypervisor::finalize_structure() {
  if (tdma_timer_ == nullptr) tdma_timer_ = &platform_.add_timer(tdma_line_);
}

void Hypervisor::start() {
  assert(!started_);
  assert(scheduler_ != nullptr && "set_schedule() must be called before start()");
  started_ = true;
  finalize_structure();
  platform_.intc().set_irq_entry_raw(
      [](void* ctx) { static_cast<Hypervisor*>(ctx)->irq_entry(); }, this);
  platform_.intc().set_lost_raise_observer([this](hw::IrqLine l) {
    const IrqSourceId sid = lines_.at(l);
    report_health(now(), HealthEventKind::kIrqRaiseLost,
                  sid != kInvalidSource ? srcs_.subscriber[sid] : kInvalidPartition, sid);
  });
  current_partition_ = scheduler_->current_owner();
  tdma_timer_->program_at(scheduler_->current_boundary());
  trace(TracePoint::kStart, TraceCategory::kScheduler, current_partition_, obs::kNoId,
        scheduler_->current_index());
  if (context_hook_) {
    context_hook_(ContextChange{now(), current_partition_, Reason::kStart});
  }
  dispatch_partition_work();
}

void Hypervisor::notify_work_available(PartitionId p) {
  if (!started_) return;
  assert(p < partitions_.size());
  // Only act when the CPU is genuinely idling in exactly that partition's
  // context; in every other state (including mid-completion callbacks, when
  // the engine's own dispatch continuation is still unwinding) the work is
  // found at the next dispatch anyway.
  if (!cpu_idle_ || hv_busy_ || running_ || interpose_ || current_partition_ != p) {
    return;
  }
  dispatch_partition_work();
}

TimePoint Hypervisor::now() const { return platform_.simulator().now(); }

// --- hardware glue ----------------------------------------------------------

void Hypervisor::irq_entry() {
  assert(!hv_busy_);
  platform_.intc().set_cpu_irq_enabled(false);
  hv_busy_ = true;
  cpu_idle_ = false;
  preempt_running();
  // One line per entry, in priority order (the TDMA tick on line 0 first);
  // lines latched meanwhile are re-delivered when return_to_partition()
  // re-enables interrupts.
  const auto line = platform_.intc().highest_pending();
  assert(line.has_value() && "irq_entry without a pending line");
  platform_.intc().acknowledge(*line);
  if (*line == tdma_line_) {
    service_tdma_tick();
  } else {
    service_top_half(*line);
  }
}

// --- hypervisor sequences ----------------------------------------------------

void Hypervisor::service_top_half(hw::IrqLine line) {
  const IrqSourceId sid = lines_.at(line);
  assert(sid != kInvalidSource && "IRQ on a line without a source");
  const PartitionId sub = srcs_.subscriber[sid];
  const TimePoint t0 = now();
  IrqEvent& ev = top_.event;
  ev.source = sid;
  ev.seq = srcs_.next_seq[sid]++;
  const TimePoint rt = platform_.intc().raise_time(line);
  // TimePoint::max() marks "never raised" (e.g. no clock attached); fall
  // back to the service instant.
  ev.raise_time = rt != TimePoint::max() ? rt : t0;
  ev.th_start = t0;
  ev.arrived_in_own_slot = !interpose_ && current_partition_ == sub && slot_owner() == sub;
  trace(TracePoint::kTopEnter, TraceCategory::kTopHandler, sub, sid, ev.seq);
  ++irq_path_stats_.serviced;
  platform_.cpu().retire_duration(hw::WorkCategory::kTopHandler, srcs_.c_top[sid]);
  const TimePoint ta = t0 + srcs_.c_top[sid];

  // The whole top half and the Fig. 4 decision are computed here, at entry
  // time: every decision input is frozen while interrupts stay disabled
  // (unrelated simulator events that run before the continuation touch
  // neither monitor, queue, nor engine state). State commits now; the trace
  // records, overflow count and health reports are emitted by the one
  // continuation, so the ring order matches the step-by-step chain even when
  // unrelated events (e.g. fault injections) land in between.
  //
  // The monitor observes *every* activation of its source (Algorithm 1 runs
  // per IRQ), in normalized time: the raw raise minus the source's
  // accumulated contention inflation (identity without an interconnect).
  // The verdict is only consulted -- and C_Mon only paid -- on the
  // foreign-slot path of Fig. 4b below.
  mon::ActivationMonitor* monitor = srcs_.monitor[sid];
  ev.admitted_interpose =
      monitor != nullptr &&
      monitor->record_and_check(normalized_observation(sid, ev.raise_time));
  IrqQueue& queue = partitions_[sub].irq_queue();
  top_.dropped = !queue.push(ev);
  top_.queue_stat = top_.dropped ? queue.drops() : queue.size();

  if (ev.arrived_in_own_slot) ++irq_path_stats_.direct;  // queue drains on return
  if (ev.arrived_in_own_slot || mode_ != TopHandlerMode::kInterposing ||
      monitor == nullptr) {
    // Direct or delayed handling (Fig. 4a): the sequence ends at Ta.
    platform_.simulator().schedule_at(ta, [this, ta] {
      emit_top_records(ta);
      return_to_partition();
    });
    return;
  }

  ++irq_path_stats_.monitor_checked;
  platform_.cpu().retire_duration(hw::WorkCategory::kMonitor, overheads_.monitor_cost());
  const TimePoint tb = ta + overheads_.monitor_cost();
  bool deny = true;
  if (!ev.admitted_interpose) {
    top_.deny_reason = obs::InterposeDenyReason::kMonitor;
  } else if (interpose_ || slot_switch_pending_) {
    // Only one interposition at a time; an admitted event that meets a busy
    // engine falls back to delayed handling.
    top_.deny_reason = obs::InterposeDenyReason::kEngineBusy;
  } else if (partitions_[sub].bh_in_progress) {
    // The subscriber still has a partially executed bottom handler (e.g. one
    // that straddled its slot boundary). A budget cannot guarantee its
    // completion, and resuming it in a foreign slot would chain stale work
    // into other partitions' time; deny and let it finish in its own slot.
    top_.deny_reason = obs::InterposeDenyReason::kBacklog;
  } else {
    deny = false;
  }
  if (deny) {
    // The monitoring function ends the sequence at Tb = Ta + C_Mon, where the
    // deny lands and control returns.
    platform_.simulator().schedule_at(tb, [this, ta, tb] {
      emit_top_records(ta);
      deny_interpose(tb);
      return_to_partition();
    });
    return;
  }

  // Contention-aware admission commit: the bottom-handler burst is charged
  // against the shared interconnect *here*, at decision-freeze time, so the
  // budget extension, the work-unit inflation at pop, the trace record and
  // the monitor's normalized clock all use one frozen number. The inflation
  // ceil(charge * d_min / C'_BH) shifts the source's normalized clock back:
  // each admission that costs C'_BH + charge consumes charge/C'_BH extra
  // interference quota under Eq. 14, and the shift makes the constant-d_min
  // check conservatively account for it (ARCHITECTURE.md, "Contention-aware
  // admission").
  Duration charge;
  Duration infl;
  hw::SharedInterconnect* icx = platform_.interconnect();
  if (icx != nullptr && srcs_.bh_accesses[sid] != 0) {
    charge = icx->contention_stall(platform_.core_id(), part_color_mask_[sub],
                                   srcs_.bh_accesses[sid], t0);
    if (charge.is_positive() && srcs_.admit_d_min[sid].is_positive() &&
        srcs_.c_bh_eff[sid].is_positive()) {
      // ceil(charge * d_min / C'_BH), factored as (charge/C)*d_min +
      // ceil((charge%C)*d_min / C) so the intermediates stay within u64.
      const auto a = static_cast<std::uint64_t>(charge.count_ns());
      const auto b = static_cast<std::uint64_t>(srcs_.admit_d_min[sid].count_ns());
      const auto c = static_cast<std::uint64_t>(srcs_.c_bh_eff[sid].count_ns());
      infl = Duration::ns(static_cast<std::int64_t>((a / c) * b + ((a % c) * b + c - 1) / c));
      srcs_.infl_acc[sid] += infl;
    }
  }

  // Admitted: the monitoring function, scheduler manipulation and the
  // context switch into the subscriber collapse into one continuation at
  // Td = Tb + C_sched + C_ctx. The decision instant Tb is preserved in the
  // trace (the interference oracle replays kInterposeStart raise times
  // against I(dt)).
  platform_.cpu().retire_duration(hw::WorkCategory::kSchedManipulation,
                                  overheads_.sched_manipulation_cost());
  retire_context_switch();
  const TimePoint td =
      tb + overheads_.sched_manipulation_cost() + overheads_.context_switch_cost();
  platform_.simulator().schedule_at(td, [this, ta, tb, charge, infl] {
    emit_top_records(ta);
    enter_interpose(tb, charge, infl);
  });
}

void Hypervisor::emit_top_records(TimePoint ta) {
  // Up to three records. Inert when tracing is off, except the overflow
  // count, which is simulation state and must not depend on tracing.
  const IrqEvent& ev = top_.event;
  const IrqSourceId sid = ev.source;
  const PartitionId sub = srcs_.subscriber[sid];
  trace_at(ta, TracePoint::kTopExit, TraceCategory::kTopHandler, sub, sid, ev.seq);
  mon::ActivationMonitor* monitor = srcs_.monitor[sid];
  if (monitor != nullptr && trace_.enabled()) {
    // Still the distance observed for this activation: nothing re-records
    // the monitor while interrupts stay disabled.
    const auto distance = monitor->last_observed_distance();
    trace_at(ta,
             ev.admitted_interpose ? TracePoint::kMonitorAdmit : TracePoint::kMonitorDeny,
             TraceCategory::kMonitor, sub, sid,
             distance ? static_cast<std::uint64_t>(distance->count_ns()) : obs::kNoValue,
             ev.seq);
  }
  if (top_.dropped) {
    trace_at(ta, TracePoint::kIrqDrop, TraceCategory::kIrq, sub, sid, ev.seq,
             top_.queue_stat);
    ++irq_path_stats_.queue_overflows;
    report_health(ta, HealthEventKind::kIrqQueueOverflow, sub, sid);
  } else {
    trace_at(ta, TracePoint::kIrqPush, TraceCategory::kIrq, sub, sid, ev.seq,
             top_.queue_stat);
  }
}

void Hypervisor::deny_interpose(TimePoint tb) {
  const IrqEvent& ev = top_.event;
  const PartitionId sub = srcs_.subscriber[ev.source];
  trace_at(tb, TracePoint::kInterposeDeny, TraceCategory::kMonitor, sub, ev.source,
           static_cast<std::uint64_t>(top_.deny_reason), ev.seq);
  switch (top_.deny_reason) {
    case obs::InterposeDenyReason::kMonitor:
      ++irq_path_stats_.denied_by_monitor;
      report_health(tb, HealthEventKind::kMonitorViolation, sub, ev.source);
      break;
    case obs::InterposeDenyReason::kEngineBusy:
      ++irq_path_stats_.denied_engine_busy;
      break;
    case obs::InterposeDenyReason::kBacklog:
      ++irq_path_stats_.denied_backlog;
      break;
    case obs::InterposeDenyReason::kGuestMasked:  // reserved, never decided
    case obs::InterposeDenyReason::kCount_:
      assert(false);
      break;
  }
}

void Hypervisor::enter_interpose(TimePoint tb, Duration charge, Duration infl) {
  const IrqEvent& ev = top_.event;
  const IrqSourceId sid = ev.source;
  const PartitionId target = srcs_.subscriber[sid];
  ++irq_path_stats_.interpose_started;
  // The admitted activation's *raise* time rides in arg0: the interference
  // oracle replays these against the I(dt) bound, and raise times -- not the
  // (overhead-shifted) context-switch instants -- are what the delta^-
  // condition constrains.
  trace_at(tb, TracePoint::kInterposeStart, TraceCategory::kInterpose, target, sid,
           static_cast<std::uint64_t>(ev.raise_time.count_ns()), ev.seq);
  if (charge.is_positive()) {
    // Companion record the oracle folds into Eq. 14: arg0 is the
    // normalized-clock shift, arg1 the span-cost allowance.
    trace_at(tb, TracePoint::kInterposeCharge, TraceCategory::kInterpose, target, sid,
             static_cast<std::uint64_t>(infl.count_ns()),
             static_cast<std::uint64_t>(charge.count_ns()));
  }
  ++ctx_stats_.interpose_enter;
  interpose_ = Interpose{current_partition_, sid, srcs_.c_bottom[sid] + charge, charge};
  current_partition_ = target;
  trace(TracePoint::kInterposeEnter, TraceCategory::kInterpose, target, sid);
  if (context_hook_) {
    context_hook_(ContextChange{now(), current_partition_, Reason::kInterposeEnter});
  }
  return_to_partition();
}

void Hypervisor::end_interpose() {
  assert(interpose_);
  assert(!hv_busy_);
  const PartitionId home = interpose_->home;
  interpose_.reset();
  hv_busy_ = true;
  platform_.intc().set_cpu_irq_enabled(false);
  if (slot_switch_pending_) {
    // The TDMA boundary fired during the interposition; perform the deferred
    // switch now instead of returning home (the switch-back is subsumed).
    slot_switch_pending_ = false;
    trace(TracePoint::kInterposeExitDeferred, TraceCategory::kInterpose, home);
    do_slot_switch(Duration::zero());
    return;
  }
  ++ctx_stats_.interpose_return;
  context_switch_step([this, home] {
    current_partition_ = home;
    trace(TracePoint::kInterposeReturn, TraceCategory::kInterpose, home);
    if (context_hook_) {
      context_hook_(ContextChange{now(), current_partition_, Reason::kInterposeReturn});
    }
    return_to_partition();
  });
}

void Hypervisor::service_tdma_tick() {
  // A boundary that lands inside a bottom handler -- interposed or not --
  // is deferred until the handler's remaining budget (<= C_BH) elapses.
  // The next slot is shortened by the deferral; this is the same bounded
  // interference as Eq. 14 and keeps bottom handlers atomic w.r.t. slot
  // boundaries (no partially executed handler ever leaks across slots).
  // The defer/switch decision commits here: its inputs cannot change while
  // interrupts stay disabled.
  const Duration tick = overheads_.tdma_tick_cost();
  if (interpose_ || partitions_[current_partition_].bh_in_progress) {
    run_hv_step(hw::WorkCategory::kSchedManipulation, tick, [this] {
      slot_switch_pending_ = true;
      ++irq_path_stats_.deferred_slot_switches;
      trace(TracePoint::kSlotDeferred, TraceCategory::kScheduler, current_partition_);
      report_health(now(), HealthEventKind::kDeferredBoundary, current_partition_,
                    obs::kNoId);
      return_to_partition();
    });
    return;
  }
  // Regular switch: tick bookkeeping and the context switch fuse into one
  // continuation at now + C_tick + C_ctx. Fusing is only valid when the
  // timer re-arm for the *next* boundary stays in the future past that
  // instant -- a next slot shorter than the switch overhead degenerates to
  // an immediate re-fire whose latching order the two-step path defines, so
  // the tick runs as its own step first.
  const auto& slots = scheduler_->slots();
  const TimePoint next_boundary =
      scheduler_->current_boundary() +
      slots[(scheduler_->current_index() + 1) % slots.size()].length;
  if (next_boundary <= now() + tick + overheads_.context_switch_cost()) {
    run_hv_step(hw::WorkCategory::kSchedManipulation, tick,
                [this] { do_slot_switch(Duration::zero()); });
    return;
  }
  platform_.cpu().retire_duration(hw::WorkCategory::kSchedManipulation, tick);
  do_slot_switch(tick);
}

void Hypervisor::do_slot_switch(Duration lead) {
  assert(hv_busy_);
  const PartitionId next = scheduler_->advance();
  // Boundaries stay on the fixed grid even if this switch was deferred; a
  // deferral that overran the whole next slot degenerates to an immediate
  // re-fire.
  tdma_timer_->program_at(std::max(scheduler_->current_boundary(), now()));
  retire_context_switch();
  platform_.simulator().schedule_after(
      lead + overheads_.context_switch_cost(),
      [this, next, slot_index = scheduler_->current_index(),
       cycles = scheduler_->cycles_completed()] {
        ++ctx_stats_.tdma;
        current_partition_ = next;
        trace(TracePoint::kSlotSwitch, TraceCategory::kScheduler, next, obs::kNoId,
              slot_index, cycles);
        if (context_hook_) {
          context_hook_(ContextChange{now(), current_partition_, Reason::kTdmaSwitch});
        }
        return_to_partition();
      });
}

// --- partition context --------------------------------------------------------

void Hypervisor::return_to_partition() {
  assert(hv_busy_);
  hv_busy_ = false;
  // Re-enabling interrupts delivers any latched IRQ synchronously; if one
  // takes over, it owns the CPU now and will return here itself.
  platform_.intc().set_cpu_irq_enabled(true);
  if (hv_busy_) return;
  dispatch_partition_work();
}

void Hypervisor::dispatch_partition_work() {
  assert(!hv_busy_);
  assert(!running_);
  cpu_idle_ = false;
  Partition& p = partitions_[current_partition_];

  auto pop_bh = [this, &p] {
    IrqEvent ev = p.irq_queue().pop();
    Duration cost = srcs_.c_bottom[ev.source];
    hw::SharedInterconnect* icx = platform_.interconnect();
    if (icx != nullptr && srcs_.bh_accesses[ev.source] != 0) {
      // The handler's burst stalls under contention, inflating its cost
      // beyond the declared C_BH. An interposed pop of the admitted source
      // consumes the charge frozen at admission (already in the budget);
      // everything else is charged live. The burst's demand becomes
      // pressure on other cores either way.
      Duration stall;
      if (interpose_ && interpose_->source == ev.source &&
          interpose_->pending_charge.is_positive()) {
        stall = interpose_->pending_charge;
        interpose_->pending_charge = Duration::zero();
        icx->register_demand(platform_.core_id(), part_color_mask_[p.id()],
                             srcs_.bh_accesses[ev.source], now());
      } else {
        stall = icx->charge_and_register(platform_.core_id(),
                                         part_color_mask_[p.id()],
                                         srcs_.bh_accesses[ev.source], now());
      }
      cost += stall;
    }
    p.bh_in_progress = WorkUnit{hw::WorkCategory::kBottomHandler, cost, ev};
    trace(TracePoint::kIrqPop, TraceCategory::kIrq, p.id(), ev.source, ev.seq,
          p.irq_queue().size());
    trace(TracePoint::kBottomStart, TraceCategory::kBottom, p.id(), ev.source, ev.seq);
  };

  WorkSlot slot;
  if (interpose_) {
    // Budget check precedes the queue pop: an exhausted budget must not
    // dequeue an event it can no longer serve (it would look like a
    // partially executed handler and block later admissions).
    if (!interpose_->budget_left.is_positive()) {
      end_interpose();
      return;
    }
    if (!p.bh_in_progress) {
      if (p.irq_queue().empty()) {
        end_interpose();
        return;
      }
      pop_bh();
    } else {
      const IrqEvent& ev = *p.bh_in_progress->event;
      trace(TracePoint::kBottomResume, TraceCategory::kBottom, p.id(), ev.source,
            ev.seq);
    }
    slot = WorkSlot::kBottomHandler;
  } else if (p.bh_in_progress) {
    const IrqEvent& ev = *p.bh_in_progress->event;
    trace(TracePoint::kBottomResume, TraceCategory::kBottom, p.id(), ev.source, ev.seq);
    slot = WorkSlot::kBottomHandler;
  } else if (!p.irq_queue().empty()) {
    pop_bh();
    slot = WorkSlot::kBottomHandler;
  } else if (p.saved_guest_work) {
    slot = WorkSlot::kGuest;
  } else if (p.client() != nullptr) {
    auto work = p.client()->next_work(now());
    if (!work) {
      cpu_idle_ = true;
      return;
    }
    assert(work->remaining.is_positive() && "guest work must have positive demand");
    assert(work->category == hw::WorkCategory::kGuest);
    p.saved_guest_work = *work;
    slot = WorkSlot::kGuest;
  } else {
    cpu_idle_ = true;
    return;
  }

  WorkUnit& w = slot == WorkSlot::kBottomHandler ? *p.bh_in_progress : *p.saved_guest_work;
  Duration slice = w.remaining;
  bool boundary_capped = false;
  if (interpose_) {
    slice = std::min(slice, interpose_->budget_left);
  } else if (slot == WorkSlot::kGuest) {
    // Cap open-ended guest chunks at the current slot boundary: the TDMA
    // tick preempts there anyway (its timer event was inserted earlier, so
    // it wins the same-instant FIFO order), and a far-future completion
    // would only be scheduled to be cancelled again at every preemption.
    const TimePoint boundary = scheduler_->current_boundary();
    if (boundary > now() && boundary - now() < slice) {
      slice = boundary - now();
      boundary_capped = true;
    }
  }
  running_ = Running{current_partition_, slot, now(), slice, {}};
  // A boundary-capped slice needs no completion event: the always-armed TDMA
  // tick preempts at (or, under fault-injected tick jitter, after) the
  // boundary, and preemption accounting sums to the same totals either way.
  // Everything that tears running_ down cancels via EventId, which is a safe
  // no-op on the default (invalid) id.
  if (!boundary_capped) {
    running_->completion =
        platform_.simulator().schedule_after(slice, [this] { on_slice_complete(); });
  }
}

void Hypervisor::preempt_running() {
  if (!running_) return;
  const Running r = *running_;
  running_.reset();
  platform_.simulator().cancel(r.completion);
  const Duration consumed = now() - r.started_at;
  Partition& p = partitions_[r.partition];
  WorkUnit& w = r.slot == WorkSlot::kBottomHandler ? *p.bh_in_progress
                                                   : *p.saved_guest_work;
  w.remaining -= consumed;
  account_work(p, w, consumed);
  if (interpose_ && r.slot == WorkSlot::kBottomHandler) {
    interpose_->budget_left -= consumed;
  }
}

void Hypervisor::account_work(Partition& p, const WorkUnit& work, Duration consumed) {
  platform_.cpu().retire_duration(work.category, consumed);
  if (work.category == hw::WorkCategory::kBottomHandler) {
    p.account_bh_time(consumed);
  } else {
    p.account_guest_time(consumed);
  }
  // Streaming interconnect demand of the executed code, registered post-hoc
  // on consumed time (never inflating the slice itself, so preemption
  // accounting is untouched). Integer division floors per retire; the
  // resulting demand is deterministic in the preemption pattern, which is
  // itself deterministic.
  hw::SharedInterconnect* icx = platform_.interconnect();
  if (icx != nullptr && consumed.is_positive()) {
    const std::uint64_t apu = part_mem_apu_[p.id()];
    if (apu != 0) {
      const std::uint64_t accesses =
          static_cast<std::uint64_t>(consumed.count_ns()) * apu / 1000;
      icx->register_demand(platform_.core_id(), part_color_mask_[p.id()], accesses,
                           now());
    }
  }
}

void Hypervisor::complete_bottom_handler(Partition& p) {
  assert(p.bh_in_progress && p.bh_in_progress->event);
  const WorkUnit work = *p.bh_in_progress;
  p.bh_in_progress.reset();
  p.count_bh_completion();

  const IrqEvent& ev = *work.event;
  CompletedIrq rec;
  rec.source = ev.source;
  rec.seq = ev.seq;
  rec.raise_time = ev.raise_time;
  rec.th_start = ev.th_start;
  rec.bh_end = now();
  // Classification follows the event's handling path: an event that arrived
  // in its subscriber's active slot is "direct" even if a boundary-straddling
  // remainder of its bottom handler finished under a later interposition.
  if (ev.arrived_in_own_slot) {
    rec.handling = stats::HandlingClass::kDirect;
  } else if (interpose_) {
    rec.handling = stats::HandlingClass::kInterposed;
  } else {
    rec.handling = stats::HandlingClass::kDelayed;
  }
  trace(TracePoint::kBottomEnd, TraceCategory::kBottom, p.id(), ev.source, ev.seq,
        static_cast<std::uint64_t>(rec.handling));
  if (completion_hook_) completion_hook_(rec);
  if (p.client() != nullptr) p.client()->on_bottom_handler_complete(ev);
}

void Hypervisor::on_slice_complete() {
  assert(running_);
  const Running r = *running_;
  running_.reset();
  Partition& p = partitions_[r.partition];
  WorkUnit& w = r.slot == WorkSlot::kBottomHandler ? *p.bh_in_progress
                                                   : *p.saved_guest_work;
  w.remaining -= r.slice;
  account_work(p, w, r.slice);
  if (interpose_ && r.slot == WorkSlot::kBottomHandler) {
    interpose_->budget_left -= r.slice;
  }

  if (!w.remaining.is_positive()) {
    if (r.slot == WorkSlot::kBottomHandler) {
      complete_bottom_handler(p);
    } else {
      p.saved_guest_work.reset();
      if (p.client() != nullptr) p.client()->on_work_complete();
    }
    // A slot switch deferred for this (non-interposed) bottom handler is
    // performed as soon as it completes.
    if (slot_switch_pending_ && !interpose_) {
      slot_switch_pending_ = false;
      hv_busy_ = true;
      platform_.intc().set_cpu_irq_enabled(false);
      do_slot_switch(Duration::zero());
      return;
    }
    // During an interposition the dispatcher keeps draining pending bottom
    // handlers while budget remains (the guest's bottom handler "processes
    // all pending interrupts", Section 3); dispatch ends the interposition
    // when the queue is empty or the budget is exhausted.
    dispatch_partition_work();
    return;
  }
  // A guest chunk whose slice was capped at the slot boundary (see
  // dispatch_partition_work) normally never fires -- the boundary tick
  // preempts first -- but if it does, it is just an artificial chunk
  // boundary: resume the remainder.
  if (r.slot == WorkSlot::kGuest) {
    dispatch_partition_work();
    return;
  }
  // Unfinished work with an expired slice only happens when the interpose
  // budget capped the slice: enforce the budget by ending the interposition;
  // the remainder continues in the subscriber's own slot.
  assert(interpose_ && !interpose_->budget_left.is_positive());
  ++irq_path_stats_.budget_overruns;
  report_health(now(), HealthEventKind::kBudgetOverrun, r.partition,
                w.event ? w.event->source : obs::kNoId);
  end_interpose();
}

void Hypervisor::snapshot_state(sim::StateWriter& w) const {
  w.boolean(started_);
  w.boolean(hv_busy_);
  w.boolean(cpu_idle_);
  w.u64(current_partition_);
  w.boolean(running_.has_value());
  if (running_) w.pod(*running_);
  w.boolean(interpose_.has_value());
  if (interpose_) w.pod(*interpose_);
  w.boolean(slot_switch_pending_);
  w.pod(ctx_stats_);
  w.pod(irq_path_stats_);
  w.pod(top_);
  w.boolean(scheduler_ != nullptr);
  if (scheduler_) scheduler_->snapshot_state(w);
  w.u64(partitions_.size());
  for (const Partition& p : partitions_) p.snapshot_state(w);
  w.pod_vec(srcs_.next_seq);
  w.pod_vec(srcs_.infl_acc);
  w.pod_vec(srcs_.last_norm_ns);
  w.u64(owned_monitors_.size());
  for (const auto& m : owned_monitors_) {
    w.boolean(m != nullptr);
    if (m) m->snapshot_state(w);
  }
  trace_.snapshot_state(w);
}

void Hypervisor::restore_state(sim::StateReader& r) {
  started_ = r.boolean();
  hv_busy_ = r.boolean();
  cpu_idle_ = r.boolean();
  current_partition_ = static_cast<PartitionId>(r.u64());
  running_.reset();
  if (r.boolean()) running_ = r.pod<Running>();
  interpose_.reset();
  if (r.boolean()) interpose_ = r.pod<Interpose>();
  slot_switch_pending_ = r.boolean();
  ctx_stats_ = r.pod<ContextSwitchStats>();
  irq_path_stats_ = r.pod<IrqPathStats>();
  top_ = r.pod<TopHalf>();
  const bool had_scheduler = r.boolean();
  if (had_scheduler != (scheduler_ != nullptr)) {
    throw std::logic_error("Hypervisor::restore: schedule configuration changed");
  }
  if (scheduler_) scheduler_->restore_state(r);
  if (r.u64() != partitions_.size()) {
    throw std::logic_error("Hypervisor::restore: partition count changed");
  }
  for (Partition& p : partitions_) p.restore_state(r);
  r.pod_vec(srcs_.next_seq);
  r.pod_vec(srcs_.infl_acc);
  r.pod_vec(srcs_.last_norm_ns);
  if (r.u64() != owned_monitors_.size()) {
    throw std::logic_error("Hypervisor::restore: source count changed");
  }
  for (auto& m : owned_monitors_) {
    if (r.boolean() != (m != nullptr)) {
      throw std::logic_error("Hypervisor::restore: monitor set changed");
    }
    if (m) m->restore_state(r);
  }
  trace_.restore_state(r);
}

std::uint64_t Hypervisor::health_count(HealthEventKind kind) const {
  switch (kind) {
    case HealthEventKind::kIrqQueueOverflow: return irq_path_stats_.queue_overflows;
    case HealthEventKind::kIrqRaiseLost: return platform_.intc().lost_raises();
    case HealthEventKind::kMonitorViolation: return irq_path_stats_.denied_by_monitor;
    case HealthEventKind::kBudgetOverrun: return irq_path_stats_.budget_overruns;
    case HealthEventKind::kDeferredBoundary: return irq_path_stats_.deferred_slot_switches;
    case HealthEventKind::kCount_: break;
  }
  assert(false && "health_count: not an event kind");
  return 0;
}

obs::TraceMeta Hypervisor::trace_meta() const {
  obs::TraceMeta meta;
  meta.partition_names.reserve(partitions_.size());
  for (const auto& p : partitions_) meta.partition_names.push_back(p.name());
  meta.source_names.reserve(source_configs_.size());
  for (const auto& s : source_configs_) meta.source_names.push_back(s.name);
  return meta;
}

}  // namespace rthv::hv
