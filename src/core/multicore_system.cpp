#include "core/multicore_system.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/metric_catalog.hpp"

namespace rthv::core {

using sim::Duration;
using sim::TimePoint;

// --- RoutedTraceDriver -------------------------------------------------------

RoutedTraceDriver::RoutedTraceDriver(sim::Simulator& origin_sim,
                                     sim::Simulator& host_sim,
                                     hw::InterruptController& host_intc,
                                     hw::IrqLine line,
                                     hw::SharedInterconnect& interconnect,
                                     std::uint32_t origin_core,
                                     std::uint32_t host_core,
                                     workload::Trace trace)
    : origin_sim_(origin_sim),
      host_sim_(host_sim),
      host_intc_(host_intc),
      line_(line),
      interconnect_(interconnect),
      origin_core_(origin_core),
      host_core_(host_core),
      trace_(std::move(trace)) {}

void RoutedTraceDriver::start() {
  assert(!started_);
  assert(!trace_.empty());
  started_ = true;
  origin_sim_.schedule_after(trace_.distance(next_++), [this] { fire(); });
}

void RoutedTraceDriver::fire() {
  ++fired_;
  const TimePoint now = origin_sim_.now();
  // The distributor message pays the interconnect's route delay, charged to
  // the *sending* core. The host core's clock is never ahead of the merged
  // frontier (the run loop always steps the globally earliest core), so the
  // latch instant is in the host's future.
  const Duration delay = interconnect_.route_delay(origin_core_, host_core_, now);
  host_sim_.schedule_at(now + delay, [this] { host_intc_.raise(line_); });
  if (next_ < trace_.size()) {
    origin_sim_.schedule_after(trace_.distance(next_++), [this] { fire(); });
  }
}

// --- MulticoreSystem ---------------------------------------------------------

MulticoreSystem::MulticoreSystem(const SystemConfig& config) : config_(config) {
  const std::uint32_t n = config_.num_cores();
  if (n == 0) {
    throw std::invalid_argument("MulticoreSystem: num_cores must be >= 1");
  }

  // Split the global config into one per-core SystemConfig: partitions (and
  // their schedule slots) follow PartitionSpec::core; each source lands on
  // its subscriber's core with the subscriber index remapped locally.
  std::vector<SystemConfig> split(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    SystemConfig& cc = split[c];
    cc.platform = config_.platform;
    cc.overheads = config_.overheads;
    cc.mode = config_.mode;
    cc.background_quantum = config_.background_quantum;
    cc.irq_queue_capacity = config_.irq_queue_capacity;
    // The per-core configs stay single-core: the shared interconnect is
    // owned here and attached to the platforms, never rebuilt per core.
  }

  // The interconnect validates its own parameters (colors, budgets) before
  // any partition mask is checked against its colors.
  interconnect_ = std::make_unique<hw::SharedInterconnect>(config_.interconnect);

  part_core_.reserve(config_.partitions.size());
  part_local_.reserve(config_.partitions.size());
  for (const auto& p : config_.partitions) {
    if (p.core >= n) {
      throw std::invalid_argument("MulticoreSystem: partition '" + p.name +
                                  "' assigned to core " + std::to_string(p.core) +
                                  " of " + std::to_string(n));
    }
    if (p.color_mask != 0 && (p.color_mask & interconnect_->full_mask()) == 0) {
      throw std::invalid_argument(
          "MulticoreSystem: partition '" + p.name + "' color_mask selects none of the " +
          std::to_string(config_.interconnect.num_colors) + " colors");
    }
    part_core_.push_back(p.core);
    part_local_.push_back(
        static_cast<std::uint32_t>(split[p.core].partitions.size()));
    split[p.core].partitions.push_back(p);
  }
  for (std::uint32_t c = 0; c < n; ++c) {
    if (split[c].partitions.empty()) {
      throw std::invalid_argument("MulticoreSystem: core " + std::to_string(c) +
                                  " hosts no partition");
    }
  }

  // An explicit TDMA schedule splits by the slot's owning partition; each
  // core then cycles through its own slots in the global declaration order.
  for (const auto& s : config_.schedule) {
    if (s.partition >= config_.partitions.size()) {
      throw std::invalid_argument("schedule references an unknown partition");
    }
    split[part_core_[s.partition]].schedule.push_back(
        ScheduleSlot{part_local_[s.partition], s.length});
  }

  source_core_.reserve(config_.sources.size());
  source_local_.reserve(config_.sources.size());
  for (const auto& s : config_.sources) {
    if (s.subscriber >= config_.partitions.size()) {
      throw std::invalid_argument("IRQ source subscriber out of range");
    }
    if (s.core >= n) {
      throw std::invalid_argument("MulticoreSystem: source '" + s.name +
                                  "' originates on core " + std::to_string(s.core) +
                                  " of " + std::to_string(n));
    }
    const std::uint32_t host = part_core_[s.subscriber];
    source_core_.push_back(host);
    source_local_.push_back(
        static_cast<std::uint32_t>(split[host].sources.size()));
    IrqSourceSpec local = s;
    local.subscriber = part_local_[s.subscriber];
    split[host].sources.push_back(local);
  }

  cores_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    cores_.push_back(std::make_unique<HypervisorSystem>(split[c]));
    cores_.back()->platform().attach_interconnect(interconnect_.get(), c);
  }
}

void MulticoreSystem::attach_trace(std::uint32_t source_index,
                                   workload::Trace trace) {
  assert(!started_);
  if (source_index >= config_.sources.size()) {
    throw std::invalid_argument("attach_trace: source index out of range");
  }
  if (trace.empty()) return;  // nothing to drive
  expected_ += trace.size();
  const std::uint32_t host = source_core_[source_index];
  const std::uint32_t local = source_local_[source_index];
  const std::uint32_t origin = config_.sources[source_index].core;
  if (origin == host) {
    cores_[host]->attach_trace(local, std::move(trace));
    return;
  }
  // Cross-core source: the device fires on the origin core's clock and its
  // raises ride the interconnect to the subscriber core's controller.
  // Source timers occupy lines 1..N on the host core (line 0 is TDMA).
  routed_.push_back(std::make_unique<RoutedTraceDriver>(
      cores_[origin]->simulator(), cores_[host]->simulator(),
      cores_[host]->platform().intc(), local + 1, *interconnect_, origin, host,
      std::move(trace)));
}

void MulticoreSystem::enable_tracing(std::size_t capacity) {
  for (auto& c : cores_) c->enable_tracing(capacity);
}

void MulticoreSystem::keep_completions(bool on) {
  for (auto& c : cores_) c->keep_completions(on);
}

void MulticoreSystem::start() {
  assert(!started_);
  started_ = true;
  for (auto& c : cores_) c->start();
  for (auto& d : routed_) d->start();
}

std::uint64_t MulticoreSystem::run(Duration horizon) {
  if (!started_) start();
  // The merged "now" is the time reached so far: the latest per-core clock
  // (every executed event is at or before it).
  TimePoint reached = TimePoint::origin();
  for (auto& c : cores_) {
    reached = std::max(reached, c->simulator().now());
  }
  return run_continue(reached + horizon);
}

bool MulticoreSystem::idle() const {
  for (const auto& c : cores_) {
    if (!c->simulator().idle()) return false;
  }
  return true;
}

TimePoint MulticoreSystem::next_event_time() const {
  TimePoint best = TimePoint::max();
  for (const auto& c : cores_) {
    if (c->simulator().idle()) continue;
    best = std::min(best, c->simulator().next_event_time());
  }
  return best;
}

std::uint64_t MulticoreSystem::completed_bottom_handlers() const {
  std::uint64_t done = 0;
  for (const auto& c : cores_) done += c->completed_bottom_handlers();
  return done;
}

std::uint64_t MulticoreSystem::lost_on_routed_sources() const {
  // Raises lost to a non-counting latch never produce a bottom handler;
  // discount them so the run terminates (same rule as the single-core
  // system). All source raises -- local and routed -- latch on the
  // subscriber core's lines 1..N.
  std::uint64_t lost = 0;
  for (const auto& c : cores_) {
    for (hw::IrqLine l = 1; l <= c->config().sources.size(); ++l) {
      lost += c->platform().intc().lost_raises(l);
    }
  }
  return lost;
}

std::uint64_t MulticoreSystem::run_continue(TimePoint until) {
  assert(started_);
  // Settled activations: completed bottom handlers plus controller-global
  // lost raises. Only the stepped core's counters can move, so the sum is
  // kept up to date from that core's delta instead of re-summed per event.
  const auto core_settled = [](const HypervisorSystem& c) {
    return c.completed_bottom_handlers() + c.platform().intc().lost_raises();
  };
  std::uint64_t settled = 0;
  for (const auto& c : cores_) settled += core_settled(*c);
  // Termination mirrors HypervisorSystem::run_continue: the global loss
  // counter over-approximates the per-source losses, so while it keeps the
  // run unsettled the per-line scan is skipped.
  const auto running = [&] {
    return run_to_horizon_ || expected_ == 0 || settled < expected_ ||
           completed_bottom_handlers() + lost_on_routed_sources() < expected_;
  };
  // A routed driver schedules onto another core, which can move that core's
  // next event ahead of the runner-up; with one, every step re-picks.
  const bool rescan_every_step = !routed_.empty();
  // Merge loop in (time, core, seq) order. The earliest core (time ties to
  // the lowest id) keeps stepping while its next event still precedes the
  // runner-up's, or equals it with a lower core id: no other core's queue
  // changes meanwhile, so this is exactly the one-event-at-a-time order.
  while (running()) {
    std::uint32_t best = UINT32_MAX;
    std::uint32_t second = UINT32_MAX;
    TimePoint best_t = TimePoint::max();
    TimePoint second_t = TimePoint::max();
    for (std::uint32_t c = 0; c < cores_.size(); ++c) {
      const sim::Simulator& s = cores_[c]->simulator();
      if (s.idle()) continue;
      const TimePoint t = s.next_event_time();
      if (t < best_t) {  // strict: equal times keep the lowest core id
        second = best;
        second_t = best_t;
        best = c;
        best_t = t;
      } else if (t < second_t) {
        second = c;
        second_t = t;
      }
    }
    if (best == UINT32_MAX || best_t > until) break;
    HypervisorSystem& core = *cores_[best];
    sim::Simulator& sim = core.simulator();
    const auto precedes_runner_up = [&](TimePoint t) {
      return t <= until && (t < second_t || (t == second_t && best < second));
    };
    do {
      const std::uint64_t before = core_settled(core);
      sim.step();
      settled += core_settled(core) - before;
    } while (!rescan_every_step && !sim.idle() && running() &&
             precedes_runner_up(sim.next_event_time()));
  }
  return completed_bottom_handlers();
}

stats::LatencyRecorder MulticoreSystem::merged_recorder() const {
  stats::LatencyRecorder merged;
  for (const auto& c : cores_) merged.merge(c->recorder());
  return merged;
}

obs::MetricsSnapshot MulticoreSystem::metrics_snapshot() const {
  namespace cat = obs::catalog;
  // Prefixed names are unique per core and the cores' prefixes differ, so
  // every entry is appended without a by-name search.
  obs::MetricsSnapshot out;
  for (std::uint32_t c = 0; c < cores_.size(); ++c) {
    const std::string prefix = std::string(cat::kCorePrefix) + std::to_string(c) + "/";
    std::string name;  // one buffer for every prefixed name
    const auto prefixed = [&](std::string_view core_name) {
      return obs::intern_name(name.assign(prefix).append(core_name));
    };
    const obs::MetricsSnapshot snap = cores_[c]->metrics_snapshot();
    for (const auto& k : snap.counters) out.counters.push_back({prefixed(k.name), k.value});
    for (const auto& g : snap.gauges) out.gauges.push_back({prefixed(g.name), g.value});
    for (const auto& h : snap.histograms) {
      out.histograms.push_back(h);
      out.histograms.back().name = prefixed(h.name);
    }
  }
  const auto& k = interconnect_->counters();
  out.counters.push_back({cat::kInterconnectStallNs.name, k.stall_ns_total});
  out.counters.push_back({cat::kInterconnectBurstsCharged.name, k.bursts_charged});
  out.counters.push_back({cat::kInterconnectAccessesRegistered.name, k.accesses_registered});
  out.counters.push_back({cat::kInterconnectAccessesThrottled.name, k.accesses_throttled});
  out.counters.push_back({cat::kInterconnectRoutes.name, k.routes});
  out.counters.push_back({cat::kInterconnectEpochsRolled.name, k.epochs_rolled});
  return out;
}

MulticoreSystem::Snapshot MulticoreSystem::snapshot() const {
  sim::StateWriter w;
  w.u64(cores_.size());
  for (const auto& c : cores_) c->snapshot_state(w);
  interconnect_->snapshot_state(w);
  w.u64(routed_.size());
  for (const auto& d : routed_) d->snapshot_state(w);
  w.u64(expected_);
  w.boolean(run_to_horizon_);
  w.boolean(started_);
  return Snapshot{w.take()};
}

void MulticoreSystem::restore(const Snapshot& snap) {
  sim::StateReader r(snap.words);
  if (r.u64() != cores_.size()) {
    throw std::logic_error("MulticoreSystem::restore: core count changed");
  }
  for (auto& c : cores_) c->restore_state(r);
  interconnect_->restore_state(r);
  if (r.u64() != routed_.size()) {
    throw std::logic_error("MulticoreSystem::restore: routed-driver count changed");
  }
  for (auto& d : routed_) d->restore_state(r);
  expected_ = r.u64();
  run_to_horizon_ = r.boolean();
  started_ = r.boolean();
  if (!r.exhausted()) {
    throw std::logic_error("MulticoreSystem::restore: snapshot words left unread");
  }
}

}  // namespace rthv::core
