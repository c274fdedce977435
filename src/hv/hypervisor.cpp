#include "hv/hypervisor.hpp"

#include <algorithm>
#include <bit>
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
  srcs_.c_bh_eff[id] = overheads_.effective_bottom_cost(config.c_bottom);
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

void Hypervisor::set_direct_delivery(IrqSourceId source, bool on) {
  srcs_.direct_hw.at(source) = on ? 1 : 0;
  platform_.intc().set_direct_delivery(source_configs_.at(source).line, on);
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
  platform_.intc().set_direct_sink_raw(
      [](void* ctx, hw::IrqLine line, TimePoint raise_time) {
        static_cast<Hypervisor*>(ctx)->on_direct_delivery(line, raise_time);
      },
      this);
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
  const auto line = platform_.intc().highest_pending();
  assert(line.has_value() && "irq_entry without a pending line");
  if (*line == tdma_line_) {
    // The TDMA tick (line 0, highest priority) is always serviced alone;
    // device lines latched behind it are re-delivered after the switch.
    platform_.intc().acknowledge(tdma_line_);
    service_tdma_tick();
    return;
  }
  service_batch();
}

// --- hypervisor sequences ----------------------------------------------------

void Hypervisor::service_batch() {
  auto& intc = platform_.intc();
  batch_.clear();
  const TimePoint t0 = now();
  Duration total_top;
  // Collect latched device lines in priority order (lowest line first),
  // acknowledging each -- the batched top half runs all their top handlers
  // back-to-back in this one IRQ-context entry. Latches beyond the batch
  // capacity are re-delivered by the controller when interrupts re-enable.
  for (std::size_t w = 0; w < intc.num_words() && batch_.count < IrqBatch::kCapacity; ++w) {
    std::uint64_t m = intc.pending_word(w);
    while (m != 0 && batch_.count < IrqBatch::kCapacity) {
      const auto line = static_cast<hw::IrqLine>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(m)));
      m &= m - 1;
      if (line == tdma_line_) continue;  // serviced alone, never batched
      intc.acknowledge(line);
      const IrqSourceId sid = lines_.at(line);
      assert(sid != kInvalidSource && "IRQ on a line without a source");
      BatchItem& item = batch_.push();
      item.source = sid;
      IrqEvent& ev = item.event;
      ev.source = sid;
      ev.seq = srcs_.next_seq[sid]++;
      const TimePoint rt = intc.raise_time(line);
      // TimePoint::max() marks "never raised" (e.g. no clock attached);
      // fall back to the service instant.
      ev.raise_time = rt != TimePoint::max() ? rt : t0;
      ev.th_start = t0;
      ev.arrived_in_own_slot = !interpose_ &&
                               current_partition_ == srcs_.subscriber[sid] &&
                               slot_owner() == srcs_.subscriber[sid];
      trace(TracePoint::kTopEnter, TraceCategory::kTopHandler, srcs_.subscriber[sid],
            sid, ev.seq);
      total_top += srcs_.c_top[sid];
    }
  }
  assert(batch_.count > 0 && "irq_entry without a serviceable line");
  irq_path_stats_.serviced += batch_.count;
  ++irq_path_stats_.batches;
  if (batch_.count > 1) irq_path_stats_.batched_irqs += batch_.count;
  // The whole top half and the Fig. 4 decision are computed here, at entry
  // time: every decision input is frozen while interrupts stay disabled
  // (unrelated simulator events that run before Ta touch neither monitor,
  // queue, nor engine state), so finish_top_batch() only schedules the one
  // continuation at the instant the step-by-step chain would have ended.
  platform_.cpu().retire_duration(hw::WorkCategory::kTopHandler, total_top);
  finish_top_batch(t0 + total_top);
}

void Hypervisor::finish_top_batch(TimePoint ta) {
  // Phase 1 -- per activation, in line-priority order: the monitor observes
  // *every* activation of its source (Algorithm 1 runs per IRQ) and the
  // event enters the subscriber's queue. The verdict is only consulted --
  // and C_Mon only paid -- on the foreign-slot path of Fig. 4b below.
  // State commits here (nothing else can observe it while interrupts stay
  // disabled); the trace records, overflow counts and health reports are
  // emitted by the fused continuation via emit_batch_records(ta), so the
  // ring order matches the step-by-step chain even when unrelated events
  // (e.g. fault injections) land between entry and Ta.
  for (std::size_t i = 0; i < batch_.count; ++i) {
    BatchItem& item = batch_.items[i];
    const IrqSourceId sid = item.source;
    IrqEvent& ev = item.event;

    bool admitted = false;
    mon::ActivationMonitor* monitor = srcs_.monitor[sid];
    if (monitor != nullptr) {
      // The monitor observes normalized time: raw raise minus the source's
      // accumulated contention inflation (identity without an interconnect).
      admitted = monitor->record_and_check(normalized_observation(sid, ev.raise_time));
    }
    ev.admitted_interpose = admitted;
    item.admitted = admitted ? 1 : 0;

    Partition& subscriber = partitions_[srcs_.subscriber[sid]];
    if (!subscriber.irq_queue().push(ev)) {
      item.dropped = 1;
      item.queue_stat = subscriber.irq_queue().drops();
    } else {
      item.dropped = 0;
      item.queue_stat = subscriber.irq_queue().size();
    }
  }

  // Phase 2 -- route every item and commit the Fig. 4b decisions. All
  // inputs (engine state, backlog) are frozen while interrupts stay
  // disabled, so deciding here and applying in one fused continuation is
  // equivalent to the unbatched step-by-step chain.
  const bool interposing = mode_ == TopHandlerMode::kInterposing;
  std::size_t num_checked = 0;
  int winner = -1;
  bool engine_busy = interpose_.has_value() || slot_switch_pending_;
  for (std::size_t i = 0; i < batch_.count; ++i) {
    BatchItem& item = batch_.items[i];
    item.checked = 0;
    item.winner = 0;
    const PartitionId sub = srcs_.subscriber[item.source];
    if (item.event.arrived_in_own_slot) {
      ++irq_path_stats_.direct;  // direct handling: queue drains on return
      continue;
    }
    if (!interposing || srcs_.monitor[item.source] == nullptr) {
      continue;  // delayed handling (Fig. 4a)
    }
    item.checked = 1;
    ++num_checked;
    ++irq_path_stats_.monitor_checked;
    if (item.admitted == 0) {
      item.deny_reason = static_cast<std::uint8_t>(obs::InterposeDenyReason::kMonitor);
    } else if (engine_busy) {
      // Only one interposition at a time; an admitted event that meets a
      // busy engine falls back to delayed handling.
      item.deny_reason = static_cast<std::uint8_t>(obs::InterposeDenyReason::kEngineBusy);
    } else if (partitions_[sub].bh_in_progress) {
      // The subscriber still has a partially executed bottom handler (e.g.
      // one that straddled its slot boundary). A budget cannot guarantee
      // its completion, and resuming it in a foreign slot would chain stale
      // work into other partitions' time; deny and let it finish in its own
      // slot.
      item.deny_reason = static_cast<std::uint8_t>(obs::InterposeDenyReason::kBacklog);
    } else {
      item.winner = 1;
      winner = static_cast<int>(i);
      engine_busy = true;  // later admitted items in this batch see a busy engine
    }
  }

  if (num_checked == 0) {
    // Nothing consults the monitor verdicts: the sequence ends at Ta.
    platform_.simulator().schedule_after(ta - now(), [this, ta] {
      emit_batch_records(ta);
      return_to_partition();
    });
    return;
  }

  const Duration mon_cost =
      overheads_.monitor_cost() * static_cast<std::int64_t>(num_checked);
  platform_.cpu().retire_duration(hw::WorkCategory::kMonitor, mon_cost);

  // Counters and deny traces/health reports are applied in the continuation
  // (at the instant the unbatched chain would have applied them); the batch
  // itself stays untouched until then -- interrupts are disabled, so no
  // other IRQ entry can reuse it.
  const auto apply_denies = [this](TimePoint t_decide) {
    for (std::size_t i = 0; i < batch_.count; ++i) {
      const BatchItem& item = batch_.items[i];
      if (item.checked == 0 || item.winner != 0) continue;
      const auto reason = static_cast<obs::InterposeDenyReason>(item.deny_reason);
      const PartitionId sub = srcs_.subscriber[item.source];
      trace_at(t_decide, TracePoint::kInterposeDeny, TraceCategory::kMonitor, sub,
               item.source, static_cast<std::uint64_t>(reason), item.event.seq);
      switch (reason) {
        case obs::InterposeDenyReason::kMonitor:
          ++irq_path_stats_.denied_by_monitor;
          report_health(now(), HealthEventKind::kMonitorViolation, sub, item.source);
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
  };

  const TimePoint tb = ta + mon_cost;
  if (winner < 0) {
    // Deny-only batch: the monitoring functions end the sequence at
    // Tb = Ta + n*C_Mon, where the denies land and control returns.
    platform_.simulator().schedule_after(tb - now(), [this, ta, tb, apply_denies] {
      emit_batch_records(ta);
      apply_denies(tb);
      return_to_partition();
    });
    return;
  }

  // Contention-aware admission commit: the winner's bottom-handler burst is
  // charged against the shared interconnect *here*, at decision-freeze time,
  // so the budget extension, the work-unit inflation at pop, the trace
  // record and the monitor's normalized clock all use one frozen number.
  // The inflation ceil(charge * d_min / C'_BH) shifts the source's
  // normalized clock back: each admission that costs C'_BH + charge consumes
  // charge/C'_BH extra interference quota under Eq. 14, and the shift makes
  // the constant-d_min check conservatively account for it (ARCHITECTURE.md,
  // "Contention-aware admission").
  Duration win_charge;
  Duration win_infl;
  {
    const IrqSourceId sid = batch_.items[static_cast<std::size_t>(winner)].source;
    hw::SharedInterconnect* icx = platform_.interconnect();
    if (icx != nullptr && srcs_.bh_accesses[sid] != 0) {
      win_charge = icx->contention_stall(platform_.core_id(),
                                         part_color_mask_[srcs_.subscriber[sid]],
                                         srcs_.bh_accesses[sid], now());
      if (win_charge.is_positive() && srcs_.admit_d_min[sid].is_positive() &&
          srcs_.c_bh_eff[sid].is_positive()) {
        // ceil(charge * d_min / C'_BH), factored as (charge/C)*d_min +
        // ceil((charge%C)*d_min / C) so the intermediates stay within u64.
        const auto a = static_cast<std::uint64_t>(win_charge.count_ns());
        const auto b = static_cast<std::uint64_t>(srcs_.admit_d_min[sid].count_ns());
        const auto c = static_cast<std::uint64_t>(srcs_.c_bh_eff[sid].count_ns());
        const std::uint64_t infl = (a / c) * b + ((a % c) * b + c - 1) / c;
        win_infl = Duration::ns(static_cast<std::int64_t>(infl));
        srcs_.infl_acc[sid] += win_infl;
      }
    }
  }

  // Admitted winner: monitoring function(s), scheduler manipulation and the
  // context switch into the subscriber collapse into one fused continuation
  // at Td = Ta + n*C_Mon + C_sched + C_ctx. The intermediate decision
  // instant Tb = Ta + n*C_Mon is preserved in the trace (the interference
  // oracle replays kInterposeStart raise times against I(dt)).
  platform_.cpu().retire_duration(hw::WorkCategory::kSchedManipulation,
                                  overheads_.sched_manipulation_cost());
  retire_context_switch();
  const TimePoint td =
      tb + overheads_.sched_manipulation_cost() + overheads_.context_switch_cost();
  platform_.simulator().schedule_after(
      td - now(),
      [this, ta, tb, apply_denies, win = static_cast<std::size_t>(winner), win_charge,
       win_infl] {
        emit_batch_records(ta);
        apply_denies(tb);
        const BatchItem& item = batch_.items[win];
        const IrqSourceId sid = item.source;
        const PartitionId target = srcs_.subscriber[sid];
        ++irq_path_stats_.interpose_started;
        // The admitted activation's *raise* time rides in arg0: the
        // interference oracle replays these against the I(dt) bound, and
        // raise times -- not the (overhead-shifted) context-switch instants
        // -- are what the delta^- condition constrains.
        trace_at(tb, TracePoint::kInterposeStart, TraceCategory::kInterpose, target,
                 sid, static_cast<std::uint64_t>(item.event.raise_time.count_ns()),
                 item.event.seq);
        if (win_charge.is_positive()) {
          // Companion record the oracle folds into Eq. 14: arg0 is the
          // normalized-clock shift, arg1 the span-cost allowance.
          trace_at(tb, TracePoint::kInterposeCharge, TraceCategory::kInterpose,
                   target, sid, static_cast<std::uint64_t>(win_infl.count_ns()),
                   static_cast<std::uint64_t>(win_charge.count_ns()));
        }
        ++ctx_stats_.interpose_enter;
        interpose_ =
            Interpose{current_partition_, sid, srcs_.c_bottom[sid] + win_charge,
                      win_charge};
        current_partition_ = target;
        trace(TracePoint::kInterposeEnter, TraceCategory::kInterpose, target, sid);
        if (context_hook_) {
          context_hook_(ContextChange{now(), current_partition_,
                                      Reason::kInterposeEnter});
        }
        return_to_partition();
      });
}

void Hypervisor::emit_batch_records(TimePoint ta) {
  // Up to three records per latched IRQ. Inert when tracing is off, except
  // the overflow counts, which are simulation state and must not depend on
  // tracing.
  for (std::size_t i = 0; i < batch_.count; ++i) {
    const BatchItem& item = batch_.items[i];
    const IrqSourceId sid = item.source;
    const PartitionId sub = srcs_.subscriber[sid];
    const IrqEvent& ev = item.event;
    trace_at(ta, TracePoint::kTopExit, TraceCategory::kTopHandler, sub, sid, ev.seq);
    mon::ActivationMonitor* monitor = srcs_.monitor[sid];
    if (monitor != nullptr && trace_.enabled()) {
      // The distance is still the one observed for this activation: each
      // monitor is recorded at most once per batch (one source per line)
      // and nothing re-records it before this continuation runs.
      const auto distance = monitor->last_observed_distance();
      trace_at(ta,
               item.admitted != 0 ? TracePoint::kMonitorAdmit : TracePoint::kMonitorDeny,
               TraceCategory::kMonitor, sub, sid,
               distance ? static_cast<std::uint64_t>(distance->count_ns()) : obs::kNoValue,
               ev.seq);
    }
    if (item.dropped != 0) {
      trace_at(ta, TracePoint::kIrqDrop, TraceCategory::kIrq, sub, sid, ev.seq,
               item.queue_stat);
      ++irq_path_stats_.queue_overflows;
      report_health(ta, HealthEventKind::kIrqQueueOverflow, sub, sid);
    } else {
      trace_at(ta, TracePoint::kIrqPush, TraceCategory::kIrq, sub, sid, ev.seq,
               item.queue_stat);
    }
  }
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
    do_slot_switch();
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
  if (interpose_ || partitions_[current_partition_].bh_in_progress) {
    run_hv_step(hw::WorkCategory::kSchedManipulation, overheads_.tdma_tick_cost(),
                [this] {
                  slot_switch_pending_ = true;
                  ++irq_path_stats_.deferred_slot_switches;
                  trace(TracePoint::kSlotDeferred, TraceCategory::kScheduler,
                        current_partition_);
                  report_health(now(), HealthEventKind::kDeferredBoundary,
                                current_partition_, obs::kNoId);
                  return_to_partition();
                });
    return;
  }
  // Regular switch: tick bookkeeping and the context switch fuse into one
  // continuation at T2 = now + C_tick + C_ctx. Fusing is only valid when the
  // timer re-arm for the *next* boundary stays in the future past T2 --
  // a next slot shorter than the switch overhead degenerates to an immediate
  // re-fire whose latching order the two-step path defines, so fall back.
  const auto& slots = scheduler_->slots();
  const TimePoint next_boundary =
      scheduler_->current_boundary() +
      slots[(scheduler_->current_index() + 1) % slots.size()].length;
  const TimePoint t2 = now() + overheads_.tdma_tick_cost() + overheads_.context_switch_cost();
  if (next_boundary <= t2) {
    run_hv_step(hw::WorkCategory::kSchedManipulation, overheads_.tdma_tick_cost(),
                [this] { do_slot_switch(); });
    return;
  }
  const PartitionId next = scheduler_->advance();
  tdma_timer_->program_at(next_boundary);
  assert(next_boundary == scheduler_->current_boundary());
  platform_.cpu().retire_duration(hw::WorkCategory::kSchedManipulation,
                                  overheads_.tdma_tick_cost());
  retire_context_switch();
  platform_.simulator().schedule_after(
      t2 - now(), [this, next, slot_index = scheduler_->current_index(),
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

void Hypervisor::do_slot_switch() {
  assert(hv_busy_);
  const PartitionId next = scheduler_->advance();
  // Boundaries stay on the fixed grid even if this switch was deferred; a
  // deferral that overran the whole next slot degenerates to an immediate
  // re-fire.
  tdma_timer_->program_at(std::max(scheduler_->current_boundary(), now()));
  ++ctx_stats_.tdma;
  context_switch_step([this, next, slot_index = scheduler_->current_index(),
                       cycles = scheduler_->cycles_completed()] {
    current_partition_ = next;
    trace(TracePoint::kSlotSwitch, TraceCategory::kScheduler, next, obs::kNoId,
          slot_index, cycles);
    if (context_hook_) {
      context_hook_(ContextChange{now(), current_partition_, Reason::kTdmaSwitch});
    }
    return_to_partition();
  });
}

// --- direct delivery (UINTC-style) -------------------------------------------

void Hypervisor::on_direct_delivery(hw::IrqLine line, TimePoint raise_time) {
  assert(started_);
  const IrqSourceId sid = lines_.at(line);
  assert(sid != kInvalidSource && "direct delivery on a line without a source");
  const PartitionId sub = srcs_.subscriber[sid];
  const std::uint64_t seq = srcs_.next_seq[sid]++;
  const TimePoint delivered = now();
  ++irq_path_stats_.direct_hw;
  // Shadow channel: the monitor observes the activation (Algorithm 1 still
  // records every event) but its verdict gates nothing -- direct-delivery
  // hardware does not consult it.
  mon::ActivationMonitor* monitor = srcs_.monitor[sid];
  if (monitor != nullptr) {
    (void)monitor->record_and_check(normalized_observation(sid, raise_time));
  }
  trace(TracePoint::kDirectDeliver, TraceCategory::kIrq, sub, sid,
        static_cast<std::uint64_t>(raise_time.count_ns()), seq);
  // The bottom handler runs to completion on the dedicated delivery path,
  // modelled as overlapping the TDMA schedule (it steals no partition CPU
  // time and defers no slot boundary).
  platform_.simulator().schedule_after(
      srcs_.c_bottom[sid], [this, sid, sub, seq, raise_time, delivered] {
        trace(TracePoint::kDirectComplete, TraceCategory::kIrq, sub, sid, seq);
        Partition& p = partitions_[sub];
        p.count_bh_completion();
        CompletedIrq rec;
        rec.source = sid;
        rec.seq = seq;
        rec.raise_time = raise_time;
        rec.th_start = delivered;
        rec.bh_end = now();
        rec.handling = stats::HandlingClass::kDirectHw;
        if (completion_hook_) completion_hook_(rec);
        if (p.client() != nullptr) {
          IrqEvent ev;
          ev.source = sid;
          ev.seq = seq;
          ev.raise_time = raise_time;
          ev.th_start = delivered;
          p.client()->on_bottom_handler_complete(ev);
        }
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
      do_slot_switch();
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
  // Only live batch items: the 64-slot scratch array is almost always empty
  // between events, and warm-start restores pay for every serialized word.
  w.u64(batch_.count);
  w.pod_span(batch_.items, batch_.count);
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
  batch_.count = r.u64();
  if (batch_.count > IrqBatch::kCapacity) {
    throw std::logic_error("Hypervisor::restore: batch count exceeds capacity");
  }
  r.pod_span(batch_.items, batch_.count);
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
