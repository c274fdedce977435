#include "core/hypervisor_system.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "mon/learning_monitor.hpp"
#include "mon/token_bucket_monitor.hpp"
#include "mon/window_count_monitor.hpp"
#include "obs/metric_catalog.hpp"

namespace rthv::core {

using sim::Duration;

namespace {

std::unique_ptr<mon::ActivationMonitor> build_monitor(const IrqSourceSpec& spec) {
  switch (spec.monitor) {
    case MonitorKind::kNone:
      return nullptr;
    case MonitorKind::kDeltaMin:
    case MonitorKind::kDeltaVector: {
      auto deltas = spec.enforced_deltas();
      if (spec.monitor == MonitorKind::kDeltaMin && !spec.d_min.is_positive()) {
        throw std::invalid_argument("kDeltaMin monitor requires a positive d_min");
      }
      if (deltas.empty()) {
        throw std::invalid_argument("kDeltaVector monitor requires a delta vector");
      }
      // Like d_min = 0: a zero delta^-[0] admits back-to-back activations,
      // and the interference oracle (Eq. 14) cannot bound such a source.
      if (!deltas[0].is_positive()) {
        throw std::invalid_argument(
            "kDeltaVector monitor requires a positive delta^-[0]");
      }
      return std::make_unique<mon::DeltaVectorMonitor>(std::move(deltas));
    }
    case MonitorKind::kLearning:
      if (spec.learning_events == 0) {
        throw std::invalid_argument("kLearning monitor requires learning_events > 0");
      }
      return std::make_unique<mon::LearningDeltaMonitor>(
          spec.learning_depth, spec.learning_events, spec.delta_vector);
    case MonitorKind::kTokenBucket:
      if (!spec.d_min.is_positive()) {
        throw std::invalid_argument("kTokenBucket monitor requires a positive fill interval (d_min)");
      }
      return std::make_unique<mon::TokenBucketMonitor>(spec.d_min, spec.bucket_depth);
    case MonitorKind::kWindowCount:
      if (!spec.d_min.is_positive()) {
        throw std::invalid_argument("kWindowCount monitor requires a positive window (d_min)");
      }
      return std::make_unique<mon::WindowCountMonitor>(spec.d_min, spec.window_events);
  }
  throw std::logic_error("unknown MonitorKind");
}

}  // namespace

HypervisorSystem::HypervisorSystem(const SystemConfig& config)
    : config_(config) {
  if (config_.partitions.empty()) {
    throw std::invalid_argument("SystemConfig needs at least one partition");
  }
  if (config_.num_cores() > 1) {
    throw std::invalid_argument(
        "num_cores = " + std::to_string(config_.num_cores()) +
        ": a multi-core config runs on MulticoreSystem, not HypervisorSystem");
  }
  // A partition's name keys its irq_queue/dropped/<partition> counter.
  const auto& parts = config_.partitions;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (parts[j].name == parts[i].name) {
        throw std::invalid_argument("duplicate partition name '" + parts[i].name + "'");
      }
    }
  }
  // Line 0 is the TDMA timer and source i is wired to line i + 1 (below).
  if (config_.platform.num_irq_lines <= config_.sources.size()) {
    throw std::invalid_argument(
        "num_irq_lines = " + std::to_string(config_.platform.num_irq_lines) +
        " leaves no line for " + std::to_string(config_.sources.size()) +
        " IRQ source(s) after the TDMA timer's line 0");
  }
  platform_ = std::make_unique<hw::Platform>(sim_, config_.platform);
  hv_ = std::make_unique<hv::Hypervisor>(*platform_, config_.overheads);
  hv_->set_top_handler_mode(config_.mode);

  drop_counter_names_.reserve(config_.partitions.size());
  std::string drop_name;  // one buffer for every prefixed name
  for (const auto& p : config_.partitions) {
    drop_counter_names_.push_back(obs::intern_name(
        drop_name.assign(obs::catalog::kIrqQueueDroppedBy.prefix).append(p.name)));
    const auto id = hv_->add_partition(p.name, config_.irq_queue_capacity);

    auto kernel = std::make_unique<guest::GuestKernel>(sim_, p.name + "-guest");
    if (p.background_load) {
      guest::GuestTaskConfig bg;
      bg.name = "background";
      bg.priority = 100;
      bg.budget = Duration::s(3600);  // effectively endless
      bg.period = Duration::zero();
      bg.quantum = config_.background_quantum;
      kernel->add_task(bg);
    }
    kernel->set_wake_callback([this, id] { hv_->notify_work_available(id); });
    hv_->set_partition_client(id, kernel.get());
    hv_->set_partition_memory(id, p.color_mask, p.mem_accesses_per_us);
    guests_.push_back(std::move(kernel));
  }
  std::vector<hv::TdmaSlot> slots;
  for (const auto& s : config_.tdma_slots()) {
    if (s.partition >= config_.partitions.size()) {
      throw std::invalid_argument("schedule references an unknown partition");
    }
    slots.push_back(hv::TdmaSlot{s.partition, s.length});
  }
  hv_->set_schedule(std::move(slots));

  // IRQ lines: 0 is the TDMA timer, sources start at 1; each source gets a
  // dedicated hardware timer as its device.
  hw::IrqLine next_line = 1;
  for (const auto& s : config_.sources) {
    if (s.subscriber >= config_.partitions.size()) {
      throw std::invalid_argument("IRQ source subscriber out of range");
    }
    hv::IrqSourceConfig src;
    src.name = s.name;
    src.line = next_line++;
    src.subscriber = s.subscriber;
    src.c_top = s.c_top;
    src.c_bottom = s.c_bottom;
    src.bh_accesses = s.bh_accesses;
    // The d_min backing the delta^- admission check, for contention-aware
    // normalization -- the same extraction the interference oracle uses.
    if (const auto deltas = s.enforced_deltas(); !deltas.empty()) {
      src.admit_d_min = deltas[0];
    }
    const auto sid = hv_->add_irq_source(src);
    if (auto monitor = build_monitor(s)) {
      hv_->set_monitor(sid, std::move(monitor));
    }
    platform_->add_timer(src.line);
  }

  // Materialize the TDMA timer now: a pristine snapshot of this system then
  // has the same structure as one that has run, which is what lets a pool
  // recycle an instance by restoring its pre-start state.
  hv_->finalize_structure();

  hv_->set_completion_hook([this](const hv::CompletedIrq& rec) {
    recorder_.record(rec.handling, rec.latency());
    if (keep_completions_) completions_.push_back(rec);
  });
}

void HypervisorSystem::enable_tracing(std::size_t capacity) {
  auto& ring = hv_->trace_ring();
  if (ring.capacity() != capacity) ring.set_capacity(capacity);
  ring.set_enabled(true);
}

obs::MetricsSnapshot HypervisorSystem::metrics_snapshot() const {
  namespace cat = obs::catalog;
  constexpr auto kClasses = static_cast<std::size_t>(stats::HandlingClass::kCount_);
  constexpr auto kHealthKinds = static_cast<std::size_t>(hv::HealthEventKind::kCount_);
  // Built once per process; after that a read is one guard check.
  static const auto completed_names = cat::enum_names<stats::HandlingClass>(cat::kIrqCompletedBy);
  static const auto latency_names = cat::enum_names<stats::HandlingClass>(cat::kIrqLatencyBy);
  static const auto health_names = cat::enum_names<hv::HealthEventKind>(cat::kHealthBy);
  const auto& irq = hv_->irq_stats();
  const auto& ctx = hv_->context_switches();
  const obs::MetricsSnapshot::Counter path_counters[] = {
      {cat::kIrqServiced.name, irq.serviced},
      {cat::kIrqDirectArrivals.name, irq.direct},
      {cat::kIrqMonitorChecked.name, irq.monitor_checked},
      {cat::kIrqInterposeStarted.name, irq.interpose_started},
      {cat::kIrqDeniedMonitor.name, irq.denied_by_monitor},
      {cat::kIrqDeniedEngineBusy.name, irq.denied_engine_busy},
      {cat::kIrqDeniedBacklog.name, irq.denied_backlog},
      {cat::kIrqDeferredSlotSwitches.name, irq.deferred_slot_switches},
      {cat::kCtxTdma.name, ctx.tdma},
      {cat::kCtxInterposeEnter.name, ctx.interpose_enter},
      {cat::kCtxInterposeReturn.name, ctx.interpose_return},
  };

  // Every name below is a catalog literal or already interned, and each is
  // emitted once (partition names are unique), so counters are appended
  // without a by-name search.
  obs::MetricsSnapshot snap;
  // Room for every counter but the checkpoint client's; the trailing 2 are
  // intc.lost_raises and sim.executed_events.
  snap.counters.reserve(2 + drop_counter_names_.size() + kClasses +
                        std::size(path_counters) + kHealthKinds + 2);
  snap.histograms.reserve(1 + kClasses);

  // Queue overflow is never silent: global and per-partition drop counters
  // (the hypervisor separately traces kIrqDrop and reports
  // kIrqQueueOverflow health events).
  snap.counters.push_back({cat::kIrqQueueDropped.name, 0});
  for (hv::PartitionId p = 0; p < hv_->num_partitions(); ++p) {
    const std::uint64_t drops = hv_->partition(p).irq_queue().drops();
    snap.counters.front().value += drops;
    snap.counters.push_back({drop_counter_names_[p], drops});
  }

  // Latency histograms: 100 us buckets from 0 to 8.5 ms (the span of the
  // paper's Fig. 6 panels); the tail lands in the overflow bucket.
  constexpr std::int64_t kBucketWidthNs = 100'000;
  constexpr std::uint32_t kNumBuckets = 85;
  snap.counters.push_back({cat::kIrqCompleted.name, recorder_.total()});
  snap.add_histogram(cat::kIrqLatencyAll.name, 0, kBucketWidthNs, kNumBuckets);
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto cls = static_cast<stats::HandlingClass>(c);
    snap.counters.push_back({completed_names[c], recorder_.count(cls)});
    snap.add_histogram(latency_names[c], 0, kBucketWidthNs, kNumBuckets);
  }
  const auto& samples = recorder_.all().samples();
  const auto& classes = recorder_.classes();
  // Size each histogram's bucket window once, from the lowest and highest
  // in-range sample of that histogram (whose bins are the lowest and
  // highest in-range bin), so observing the samples never reallocates. The
  // buckets span [0, kEndNs).
  constexpr std::int64_t kEndNs = kBucketWidthNs * kNumBuckets;
  std::array<std::int64_t, 1 + kClasses> lo_ns;
  std::array<std::int64_t, 1 + kClasses> hi_ns;
  lo_ns.fill(kEndNs);
  hi_ns.fill(-1);
  const auto widen = [&lo_ns, &hi_ns](std::size_t h, std::int64_t ns) {
    lo_ns[h] = std::min(lo_ns[h], ns);
    hi_ns[h] = std::max(hi_ns[h], ns);
  };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::int64_t ns = samples[i].count_ns();
    if (ns < 0 || ns >= kEndNs) continue;
    widen(0, ns);
    widen(1 + static_cast<std::size_t>(classes[i]), ns);
  }
  for (std::size_t h = 0; h < lo_ns.size(); ++h) {
    auto& hist = snap.histograms[h];
    if (lo_ns[h] <= hi_ns[h]) {
      hist.buckets.cover(hist.bucket_of(lo_ns[h]), hist.bucket_of(hi_ns[h]));
    }
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::int64_t latency_ns = samples[i].count_ns();
    snap.histograms[0].observe(latency_ns);
    snap.histograms[1 + static_cast<std::size_t>(classes[i])].observe(latency_ns);
  }

  if (client_ != nullptr) client_->append_metrics(snap);

  snap.counters.insert(snap.counters.end(), std::begin(path_counters), std::end(path_counters));
  for (std::size_t k = 0; k < kHealthKinds; ++k) {
    snap.counters.push_back(
        {health_names[k], hv_->health_count(static_cast<hv::HealthEventKind>(k))});
  }
  snap.counters.push_back({cat::kIntcLostRaises.name, platform_->intc().lost_raises()});
  snap.counters.push_back({cat::kSimExecutedEvents.name, sim_.executed_events()});
  snap.gauges.push_back({cat::kSimNowNs.name, sim_.now().count_ns()});
  return snap;
}

void HypervisorSystem::attach_trace(std::uint32_t source_index, workload::Trace trace) {
  assert(!started_);
  if (source_index >= config_.sources.size()) {
    throw std::invalid_argument("attach_trace: source index out of range");
  }
  if (trace.empty()) return;  // nothing to drive
  expected_ += trace.size();
  // Timer i belongs to source i (timers were added in source order; the
  // TDMA timer is created by the hypervisor at start() and lives behind
  // them, so source timers are index 0..N-1 here).
  drivers_.push_back(std::make_unique<TraceIrqDriver>(
      platform_->timer(source_index), std::move(trace)));
}

void HypervisorSystem::clear_traces() {
  // Destroying a driver leaves its timer's expiry hook dangling; clear the
  // hooks too so nothing can ever call into freed memory. The hooks are
  // wiring, not state: attach_trace() re-installs them for the next run.
  drivers_.clear();
  for (std::uint32_t i = 0; i < config_.sources.size(); ++i) {
    platform_->timer(i).set_on_expiry({});
  }
  expected_ = 0;
  started_ = false;
}

void HypervisorSystem::start() {
  assert(!started_);
  started_ = true;
  for (auto& g : guests_) g->start();
  for (auto& d : drivers_) d->start();
  hv_->start();
}

std::uint64_t HypervisorSystem::run(Duration horizon) {
  if (!started_) start();
  return run_continue(sim_.now() + horizon);
}

std::uint64_t HypervisorSystem::run_continue(sim::TimePoint until) {
  assert(started_);
  // Source raises lost to the non-counting IRQ latch (an already-pending
  // line swallows a raise, exactly like real IRQ flags) will never produce
  // a bottom handler; discount them so the run terminates.
  const auto lost_on_sources = [this] {
    std::uint64_t lost = 0;
    for (hw::IrqLine l = 1; l <= config_.sources.size(); ++l) {
      lost += platform_->intc().lost_raises(l);
    }
    return lost;
  };
  // With no traces attached, run to the horizon (pure guest workloads).
  // Termination check, cheapest first: the controller-global lost counter
  // over-approximates the per-source sum (it also covers line 0), so while
  // completed + global losses stay below expected the run certainly isn't
  // done and the per-line scan is skipped entirely.
  while ((run_to_horizon_ || expected_ == 0 ||
          completed_bottom_handlers() + platform_->intc().lost_raises() < expected_ ||
          completed_bottom_handlers() + lost_on_sources() < expected_) &&
         !sim_.idle() && sim_.now() < until) {
    sim_.step();
  }
  return completed_bottom_handlers();
}

void HypervisorSystem::attach_checkpoint_client(CheckpointClient* client) {
  assert(client != nullptr);
  if (client_ != nullptr && client_ != client) {
    throw std::logic_error("HypervisorSystem: a checkpoint client is already attached");
  }
  client_ = client;
}

void HypervisorSystem::detach_checkpoint_client(CheckpointClient* client) {
  if (client_ == client) client_ = nullptr;
}

HypervisorSystem::SystemSnapshot HypervisorSystem::snapshot() const {
  sim::StateWriter w;
  snapshot_state(w);
  return SystemSnapshot{w.take()};
}

void HypervisorSystem::restore(const SystemSnapshot& snap) {
  sim::StateReader r(snap.words);
  restore_state(r);
  if (!r.exhausted()) {
    throw std::logic_error("HypervisorSystem::restore: snapshot words left unread");
  }
}

void HypervisorSystem::snapshot_state(sim::StateWriter& w) const {
  sim_.snapshot_state(w);
  platform_->snapshot_state(w);
  w.u64(guests_.size());
  for (const auto& g : guests_) g->snapshot_state(w);
  w.u64(drivers_.size());
  for (const auto& d : drivers_) d->snapshot_state(w);
  w.u64(expected_);
  w.boolean(keep_completions_);
  w.boolean(run_to_horizon_);
  w.boolean(started_);
  hv_->snapshot_state(w);
  recorder_.snapshot_state(w);
  w.pod_vec(completions_);
  w.boolean(client_ != nullptr);
  if (client_ != nullptr) client_->snapshot_state(w);
}

void HypervisorSystem::restore_state(sim::StateReader& r) {
  sim_.restore_state(r);
  platform_->restore_state(r);
  if (r.u64() != guests_.size()) {
    throw std::logic_error("HypervisorSystem::restore: guest count changed");
  }
  for (auto& g : guests_) g->restore_state(r);
  if (r.u64() != drivers_.size()) {
    throw std::logic_error("HypervisorSystem::restore: trace-driver count changed");
  }
  for (auto& d : drivers_) d->restore_state(r);
  expected_ = r.u64();
  keep_completions_ = r.boolean();
  run_to_horizon_ = r.boolean();
  started_ = r.boolean();
  hv_->restore_state(r);
  recorder_.restore_state(r);
  r.pod_vec(completions_);

  // The client restores last: it may re-establish device-level decorations
  // (e.g. a clock-drift deadline transform) on the freshly restored
  // platform state.
  if (r.boolean() != (client_ != nullptr)) {
    throw std::logic_error(
        "HypervisorSystem::restore: checkpoint-client presence changed");
  }
  if (client_ != nullptr) client_->restore_state(r);
}

}  // namespace rthv::core
