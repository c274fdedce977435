// The hypervisor.
//
// Re-implementation (on the simulated platform) of a uC/OS-MMU-style
// real-time hypervisor with TDMA partition scheduling and split interrupt
// handling, plus the paper's contribution: monitored *interposed* execution
// of IRQ bottom handlers inside foreign TDMA slots.
//
// Execution model
// ---------------
// The CPU is always in one of three states:
//  * hypervisor IRQ context -- interrupts disabled; top handlers, monitor
//    checks, scheduler manipulation and context switches run here as timed,
//    non-preemptible steps;
//  * partition context -- interrupts enabled; guest task work and bottom
//    handlers run here and are preempted immediately by any IRQ;
//  * idle -- the active partition has no runnable work.
//
// Interrupt path (paper Figs. 2/4): a hardware IRQ enters the hypervisor,
// the top handler acknowledges the line and pushes an emulated-IRQ event
// into the subscriber partition's FIFO queue. Then
//  * subscriber active  -> return; the partition drains its queue before
//    resuming task code (direct handling);
//  * foreign slot, original top handler (Fig. 4a) -> return; the event
//    waits for the subscriber's slot (delayed handling);
//  * foreign slot, modified top handler (Fig. 4b) -> the monitoring
//    function decides: if the activation conforms to the delta^- condition
//    the hypervisor manipulates the scheduler, switches into the
//    subscriber partition, lets exactly one bottom handler execute for at
//    most its declared budget, and switches back (interposed handling).
//
// Hot-path structure: per-source and per-line state lives in struct-of-
// arrays dispatch tables (hv/dispatch_table.hpp). Every IRQ entry services
// exactly one line, the highest-priority latched one; lines latched
// meanwhile are re-delivered when interrupts re-enable. The Fig. 4b
// decision is committed at the end of the top half -- its inputs cannot
// change while interrupts are disabled -- so monitor cost, scheduler
// manipulation and the context switch collapse into a single simulator
// event at the correct instant. Trace events keep their paper-exact
// timestamps via explicit-time emits.
//
// TDMA slot boundaries lie on a fixed grid (see TdmaScheduler). A boundary
// that fires while an interposed bottom handler runs is deferred until the
// handler's budget ends; the next slot is shortened by that deferral, which
// is exactly the bounded interference of Eq. 14.
//
// UINTC-style direct delivery: sources flagged via set_direct_delivery()
// bypass the hypervisor entirely -- the interrupt controller vectors them
// straight to the subscriber after a fixed hardware cost, the bottom
// handler runs to completion on the dedicated delivery path (modelled as
// not perturbing the TDMA schedule), and the source's monitor observes the
// activation through a shadow channel without gating anything.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hv/dispatch_table.hpp"
#include "hv/health.hpp"
#include "hv/overhead_model.hpp"
#include "hv/partition.hpp"
#include "hv/tdma_scheduler.hpp"
#include "hv/types.hpp"
#include "hw/platform.hpp"
#include "mon/monitor.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"
#include "sim/state_io.hpp"
#include "stats/latency_recorder.hpp"

namespace rthv::hv {

/// Which top handler is installed (paper Fig. 4a vs. 4b).
enum class TopHandlerMode : std::uint8_t {
  kOriginal,     // direct/delayed handling only
  kInterposing,  // monitored interposed handling for sources with a monitor
};

struct IrqSourceConfig {
  std::string name;
  hw::IrqLine line = 0;
  PartitionId subscriber = kInvalidPartition;
  sim::Duration c_top;     // C_THi
  sim::Duration c_bottom;  // C_BHi (also the enforced interpose budget)

  /// Interconnect burst of one bottom-handler execution; charged (and its
  /// contention stall added to the handler's cost and interpose budget)
  /// only when the platform is attached to a hw::SharedInterconnect.
  std::uint64_t bh_accesses = 0;
  /// The d_min backing the source's delta^- admission check. Required for
  /// contention-aware admission: an admitted interposition whose burst
  /// stalls for `charge` shifts the source's normalized clock back by
  /// ceil(charge * admit_d_min / C'_BH), so the constant-d_min monitor
  /// keeps Eq. 14 an upper bound on the *inflated* interference. Zero
  /// disables the normalization (monitors observe raw raise times).
  sim::Duration admit_d_min;
};

/// Completion record passed to the latency hook for every bottom handler.
struct CompletedIrq {
  IrqSourceId source = 0;
  std::uint64_t seq = 0;
  sim::TimePoint raise_time;
  sim::TimePoint th_start;
  sim::TimePoint bh_end;
  stats::HandlingClass handling = stats::HandlingClass::kDirect;

  /// The paper's measured latency: top-handler activation to bottom-handler
  /// end (Section 6.1).
  [[nodiscard]] sim::Duration latency() const { return bh_end - th_start; }
};

struct ContextSwitchStats {
  std::uint64_t tdma = 0;              // regular slot switches
  std::uint64_t interpose_enter = 0;   // switch into the interposed partition
  std::uint64_t interpose_return = 0;  // switch back afterwards
  [[nodiscard]] std::uint64_t total() const {
    return tdma + interpose_enter + interpose_return;
  }
};

struct IrqPathStats {
  std::uint64_t serviced = 0;        // top handlers executed
  std::uint64_t direct = 0;          // arrived in subscriber's active slot
  std::uint64_t monitor_checked = 0; // foreign arrivals that paid C_Mon
  std::uint64_t interpose_started = 0;
  std::uint64_t denied_by_monitor = 0;
  std::uint64_t denied_engine_busy = 0;  // admitted but an interpose was active
  std::uint64_t denied_backlog = 0;      // admitted but a partial BH was pending
  std::uint64_t deferred_slot_switches = 0;
  std::uint64_t direct_hw = 0;           // UINTC-style hardware deliveries
  std::uint64_t budget_overruns = 0;     // interposed BH cut by its budget
  std::uint64_t queue_overflows = 0;     // events dropped at a full queue
};

class Hypervisor {
 public:
  Hypervisor(hw::Platform& platform, const OverheadConfig& overheads = {});

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  // --- configuration (before start()) -------------------------------------

  PartitionId add_partition(std::string name, std::size_t irq_queue_capacity = 64);

  /// Installs the TDMA schedule. Every slot must name an existing partition.
  void set_schedule(std::vector<TdmaSlot> slots);

  IrqSourceId add_irq_source(const IrqSourceConfig& config);

  /// Attaches an activation monitor to a source (required for interposing).
  void set_monitor(IrqSourceId source, std::unique_ptr<mon::ActivationMonitor> monitor);

  void set_top_handler_mode(TopHandlerMode mode) { mode_ = mode; }
  [[nodiscard]] TopHandlerMode top_handler_mode() const { return mode_; }

  /// UINTC-style direct delivery for a source: its line bypasses the
  /// hypervisor (fixed hardware cost, no interposition, no slot wait); the
  /// source's monitor still observes every activation via a shadow channel
  /// but its verdict gates nothing. A platform-level scenario axis.
  void set_direct_delivery(IrqSourceId source, bool on);
  [[nodiscard]] bool direct_delivery(IrqSourceId source) const {
    return srcs_.direct_hw.at(source) != 0;
  }

  /// Hook invoked for every completed bottom handler.
  using CompletionHook = std::function<void(const CompletedIrq&)>;
  void set_completion_hook(CompletionHook hook) { completion_hook_ = std::move(hook); }

  /// Typed notification whenever a different partition context becomes
  /// active (timeline/occupancy tracking).
  struct ContextChange {
    sim::TimePoint time;
    PartitionId partition;
    enum class Reason : std::uint8_t {
      kStart,            // initial entry at start()
      kTdmaSwitch,       // regular (or deferred) slot switch
      kInterposeEnter,   // switched into the subscriber for an interposition
      kInterposeReturn,  // switched back to the interrupted partition
    } reason = Reason::kStart;
  };
  using ContextHook = std::function<void(const ContextChange&)>;
  void set_context_hook(ContextHook hook) { context_hook_ = std::move(hook); }

  /// Binds a guest to a partition.
  void set_partition_client(PartitionId p, PartitionClient* client);

  /// Memory behavior of a partition on the shared interconnect: the LLC
  /// color mask its pages are allocated from (cache coloring) and the
  /// demand its executing code registers per microsecond of guest/BH work.
  /// No-ops unless the platform is attached to a hw::SharedInterconnect.
  void set_partition_memory(PartitionId p, std::uint32_t color_mask,
                            std::uint64_t mem_accesses_per_us);
  [[nodiscard]] std::uint32_t partition_color_mask(PartitionId p) const {
    return part_color_mask_.at(p);
  }

  /// Materializes start-time structure (the TDMA hardware timer) ahead of
  /// start(), without wiring or scheduling anything. Idempotent. Assemblers
  /// that snapshot a pristine system for warm-start recycling call this once
  /// after configuration, so the platform's timer population is identical
  /// before and after start() and a pre-start snapshot restores cleanly onto
  /// a system that has run.
  void finalize_structure();

  /// Starts TDMA scheduling; call once, then run the simulator.
  void start();

  // --- hypercalls ----------------------------------------------------------

  /// Guest notification that new work became runnable in partition `p`
  /// (e.g. a periodic release fired -- the para-virtual analogue of a guest
  /// timer interrupt). If that partition's context is active and the CPU is
  /// idle, dispatching resumes immediately; otherwise this is a no-op (the
  /// work is picked up at the next natural dispatch point).
  void notify_work_available(PartitionId p);

  // --- queries -------------------------------------------------------------

  [[nodiscard]] Partition& partition(PartitionId p) { return partitions_.at(p); }
  [[nodiscard]] const Partition& partition(PartitionId p) const {
    return partitions_.at(p);
  }
  [[nodiscard]] std::uint32_t num_partitions() const {
    return static_cast<std::uint32_t>(partitions_.size());
  }
  [[nodiscard]] const TdmaScheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] const OverheadModel& overheads() const { return overheads_; }
  [[nodiscard]] const IrqSourceConfig& irq_source(IrqSourceId s) const {
    return source_configs_.at(s);
  }
  [[nodiscard]] const mon::ActivationMonitor* monitor(IrqSourceId s) const {
    return owned_monitors_.at(s).get();
  }
  [[nodiscard]] mon::ActivationMonitor* monitor(IrqSourceId s) {
    return owned_monitors_.at(s).get();
  }

  /// Partition whose context is currently loaded (differs from the slot
  /// owner while an interposed bottom handler runs).
  [[nodiscard]] PartitionId current_partition() const { return current_partition_; }
  [[nodiscard]] PartitionId slot_owner() const { return scheduler_->current_owner(); }
  [[nodiscard]] bool interpose_active() const { return interpose_.has_value(); }
  [[nodiscard]] bool in_hv_context() const { return hv_busy_; }

  [[nodiscard]] const ContextSwitchStats& context_switches() const { return ctx_stats_; }
  [[nodiscard]] const IrqPathStats& irq_stats() const { return irq_path_stats_; }

  /// Typed trace ring; every hypervisor hot path emits here when tracing is
  /// enabled.
  [[nodiscard]] obs::TraceRing& trace_ring() { return trace_; }
  [[nodiscard]] const obs::TraceRing& trace_ring() const { return trace_; }

  /// Partition / source names for rendering trace snapshots.
  [[nodiscard]] obs::TraceMeta trace_meta() const;

  /// Health events of `kind` reported so far (each is also a kHealth trace
  /// record), read from the counter bumped at the reporting site.
  [[nodiscard]] std::uint64_t health_count(HealthEventKind kind) const;

  // --- checkpoint / restore ------------------------------------------------

  /// Full mutable hypervisor state, written into the caller's word stream:
  /// scheduler position, partition queues and saved work units, monitor
  /// tracebuffers, dispatch counters, contention normalization, and the
  /// trace ring's cursor, counters and retained records (never its unused
  /// slots). All of it is plain data. Wiring (platform references,
  /// dispatch-table topology, hooks, clients, overheads) is structural and
  /// not captured: restore_state() must run on the same configured
  /// hypervisor the stream was written from, between simulator events.
  void snapshot_state(sim::StateWriter& w) const;
  void restore_state(sim::StateReader& r);

 private:
  /// Which storage slot of the partition the running work lives in.
  enum class WorkSlot : std::uint8_t { kBottomHandler, kGuest };

  struct Running {
    PartitionId partition;
    WorkSlot slot;
    sim::TimePoint started_at;
    sim::Duration slice;
    sim::EventId completion;
  };

  struct Interpose {
    PartitionId home;          // partition whose slot we interrupted
    IrqSourceId source;        // admitted source (budget owner)
    sim::Duration budget_left; // enforced execution budget
    /// Contention stall frozen at admission time for the admitted source's
    /// first bottom-handler pop (already folded into budget_left); consumed
    /// by that pop so the cost, budget, trace and monitor all see the same
    /// charge. Zero once consumed or when the platform has no interconnect.
    sim::Duration pending_charge;
  };

  /// The IRQ whose top half is in flight: written at entry, read by the one
  /// continuation that ends its sequence (interrupts stay disabled between
  /// the two, so no other entry can overwrite it).
  struct TopHalf {
    IrqEvent event;
    std::uint64_t queue_stat = 0;  // queue depth after the push, or drops after a drop
    obs::InterposeDenyReason deny_reason = obs::InterposeDenyReason::kMonitor;
    bool dropped = false;          // the subscriber's queue was full
  };

  // Hardware glue.
  void irq_entry();
  void on_direct_delivery(hw::IrqLine line, sim::TimePoint raise_time);

  // Hypervisor sequences (interrupts disabled). Templated so the
  // continuation lambda forwards straight into its event-queue slot --
  // routing through std::function here would allocate once per timed step
  // on the IRQ hot path.
  template <typename F>
  void run_hv_step(hw::WorkCategory category, sim::Duration cost, F&& continuation) {
    assert(hv_busy_);
    assert(!cost.is_negative());
    platform_.cpu().retire_duration(category, cost);
    platform_.simulator().schedule_after(cost, std::forward<F>(continuation));
  }
  template <typename F>
  void context_switch_step(F&& continuation) {
    assert(hv_busy_);
    retire_context_switch();
    platform_.simulator().schedule_after(overheads_.context_switch_cost(),
                                         std::forward<F>(continuation));
  }
  void retire_context_switch() {
    const auto raw = overheads_.raw_context_switch_cost();
    platform_.cpu().retire_instructions(hw::WorkCategory::kContextSwitch,
                                        raw.invalidate_instructions);
    platform_.cpu().retire_cycles(hw::WorkCategory::kCacheWriteback, raw.writeback_cycles);
  }
  void service_top_half(hw::IrqLine line);
  void emit_top_records(sim::TimePoint ta);
  void deny_interpose(sim::TimePoint tb);
  void enter_interpose(sim::TimePoint tb, sim::Duration charge, sim::Duration infl);
  void service_tdma_tick();
  /// Advances the schedule and switches into the next slot's partition; the
  /// switch ends `lead` + C_ctx from now (`lead` is the tick bookkeeping a
  /// fused regular switch still has to run, zero otherwise).
  void do_slot_switch(sim::Duration lead);
  void end_interpose();

  // Partition context.
  void return_to_partition();
  void dispatch_partition_work();
  void on_slice_complete();
  void preempt_running();
  void account_work(Partition& p, const WorkUnit& work, sim::Duration consumed);
  void complete_bottom_handler(Partition& p);

  /// The activation time a source's monitor observes: the raw raise time
  /// shifted back by the source's accumulated contention inflation (clamped
  /// monotone). Identity when no interconnect is attached or no admission
  /// has been contention-inflated yet (infl_acc == 0).
  [[nodiscard]] sim::TimePoint normalized_observation(IrqSourceId sid,
                                                      sim::TimePoint raise);

  [[nodiscard]] sim::TimePoint now() const;

  /// Emit helper for instrumentation points; a disabled ring reduces this
  /// to a handful of loads and one predictable branch.
  void trace(obs::TracePoint point, obs::TraceCategory category,
             std::uint32_t partition = obs::kNoId, std::uint32_t source = obs::kNoId,
             std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    trace_.emit(now().count_ns(), point, category, partition, source, arg0, arg1);
  }
  /// Same, with an explicit timestamp: fused hot-path chains emit the
  /// intermediate instants of the steps they collapsed.
  void trace_at(sim::TimePoint t, obs::TracePoint point, obs::TraceCategory category,
                std::uint32_t partition = obs::kNoId,
                std::uint32_t source = obs::kNoId, std::uint64_t arg0 = 0,
                std::uint64_t arg1 = 0) {
    trace_.emit(t.count_ns(), point, category, partition, source, arg0, arg1);
  }
  /// A health event is its kHealth trace record (arg0 = kind); the count
  /// lives in the counter the reporting site bumps (see health_count()).
  void report_health(sim::TimePoint t, HealthEventKind kind, PartitionId partition,
                     IrqSourceId source) {
    trace_at(t, obs::TracePoint::kHealth, obs::TraceCategory::kOther, partition, source,
             static_cast<std::uint64_t>(kind));
  }

  hw::Platform& platform_;
  OverheadModel overheads_;  // lint: transient(cost-model config fixed before start)
  obs::TraceRing trace_;

  std::vector<Partition> partitions_;
  std::unique_ptr<TdmaScheduler> scheduler_;

  // Source state, split hot/cold: the dispatch tables hold everything the
  // per-IRQ path reads (SoA, contiguous); names and monitor ownership stay
  // here. kInvalidSource marks lines without a source.
  static constexpr IrqSourceId kInvalidSource = LineTable::kNoSource;
  std::vector<IrqSourceConfig> source_configs_;  // lint: transient(per-source config fixed by add_irq_source before start)
  std::vector<std::unique_ptr<mon::ActivationMonitor>> owned_monitors_;
  SourceTable srcs_;
  LineTable lines_;  // lint: transient(line-to-source mapping built by add_irq_source before start)
  TopHalf top_;

  hw::HwTimer* tdma_timer_ = nullptr;  // owned by the platform  // lint: transient(platform wiring; the timer's state is in the platform snapshot)
  hw::IrqLine tdma_line_ = 0;  // lint: transient(line assignment fixed at start)

  TopHandlerMode mode_ = TopHandlerMode::kOriginal;  // lint: transient(experiment config set before start; never changes mid-run)
  CompletionHook completion_hook_;  // lint: transient(owner wiring, re-established at system assembly)
  ContextHook context_hook_;  // lint: transient(owner wiring, re-established at system assembly)

  bool started_ = false;
  bool hv_busy_ = false;
  /// True only when the CPU is genuinely idle in partition context (the
  /// last dispatch found no work). Guards notify_work_available against
  /// dispatching while an engine continuation is still unwinding.
  bool cpu_idle_ = false;
  PartitionId current_partition_ = kInvalidPartition;
  std::optional<Running> running_;
  std::optional<Interpose> interpose_;
  bool slot_switch_pending_ = false;

  // Per-partition interconnect behavior (indexed by PartitionId).
  std::vector<std::uint32_t> part_color_mask_;  // lint: transient(memory config fixed before start)
  std::vector<std::uint64_t> part_mem_apu_;  // lint: transient(memory config fixed before start)
  ContextSwitchStats ctx_stats_;
  IrqPathStats irq_path_stats_;
};

}  // namespace rthv::hv
