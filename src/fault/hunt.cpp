#include "fault/hunt.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "exp/batch_runner.hpp"
#include "exp/seed.hpp"
#include "fault/fault_engine.hpp"
#include "mon/monitor.hpp"
#include "sim/random.hpp"

namespace rthv::fault {

namespace {

using sim::Duration;
using sim::TimePoint;

/// One system replica with its fork snapshot. Candidate evaluations restore
/// and re-run on the same object graph, so the pointers captured by the
/// snapshot's queued callbacks keep pointing at live objects.
struct Worker {
  std::unique_ptr<core::HypervisorSystem> system;
  std::unique_ptr<FaultEngine> base_engine;
  std::unique_ptr<InterferenceOracle> oracle;
  core::HypervisorSystem::SystemSnapshot snap;
  TimePoint fork_time;
  TimePoint end_time;
  std::uint64_t events_at_fork = 0;
};

struct EvalOutcome {
  OracleReport report;
  obs::CoverageMap coverage;
  std::uint64_t events = 0;
  std::int64_t max_latency_ns = 0;
  bool finding = false;
};

/// Steps a fresh started system to the configured fork point. The fork
/// instant depends only on (config, base plan, seed), so every worker forks
/// at the identical simulated state -- and a standalone replay that re-runs
/// this prefix lands on it bit-exactly, snapshot layer or not.
void run_to_fork(core::HypervisorSystem& system, const HuntConfig& cfg) {
  auto& sim = system.simulator();
  auto& hv = system.hypervisor();
  const TimePoint end = TimePoint::origin() + cfg.horizon;
  switch (cfg.fork.kind) {
    case HuntForkPoint::Kind::kTime:
      (void)system.run_continue(std::min(cfg.fork.time, end));
      break;
    case HuntForkPoint::Kind::kSlotBoundary:
      while (hv.context_switches().tdma < cfg.fork.boundary && !sim.idle() &&
             sim.now() < end) {
        sim.step();
      }
      break;
    case HuntForkPoint::Kind::kMonitorDepth: {
      const mon::ActivationMonitor* monitor = hv.monitor(cfg.fork.source);
      if (monitor == nullptr) {
        throw std::invalid_argument("hunt fork point: source has no monitor");
      }
      while (monitor->observed() < cfg.fork.depth && !sim.idle() &&
             sim.now() < end) {
        sim.step();
      }
      break;
    }
  }
}

/// Clamps every injector start to the fork instant. This is the standalone-
/// replay contract: a reproducer armed at t=0 on a fresh system schedules
/// nothing before the fork, so its post-fork timeline matches the in-hunt
/// evaluation exactly.
void clamp_starts(FaultPlan& plan, TimePoint fork_time) {
  for (auto& spec : plan.injections) {
    spec.start = std::max(spec.start, fork_time);
  }
}

/// Seeded structural + parameter mutation. Distances shrink-biased: denser
/// admitted patterns are where Eq. 14 headroom lives.
FaultPlan mutate(const FaultPlan& parent, sim::Xoshiro256& rng,
                 TimePoint fork_time, Duration horizon) {
  FaultPlan plan = parent;
  if (plan.injections.empty()) {
    InjectionSpec spec;
    spec.kind = FaultKind::kFlood;
    spec.start = fork_time;
    spec.count = 8;
    spec.distance = Duration::us(1000);
    plan.injections.push_back(spec);
  }
  // Rarely duplicate or drop a whole injection (structural moves).
  const std::uint64_t structural = rng.uniform_int(0, 9);
  if (structural == 0) {
    plan.injections.push_back(
        plan.injections[rng.uniform_int(0, plan.injections.size() - 1)]);
  } else if (structural == 1 && plan.injections.size() > 1) {
    plan.injections.erase(plan.injections.begin() +
                          static_cast<std::ptrdiff_t>(
                              rng.uniform_int(0, plan.injections.size() - 1)));
  }

  auto& spec = plan.injections[rng.uniform_int(0, plan.injections.size() - 1)];
  const auto scale_down_biased = [&rng](Duration d, Duration floor) {
    const double f = rng.uniform_range(0.5, 1.1);
    const auto ns = static_cast<std::int64_t>(static_cast<double>(d.count_ns()) * f);
    return std::max(floor, Duration::ns(ns));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0:
      if (spec.distance.is_positive()) {
        spec.distance = scale_down_biased(spec.distance, Duration::us(1));
      }
      if (spec.mean.is_positive()) {
        spec.mean = scale_down_biased(spec.mean, Duration::us(1));
      }
      break;
    case 1: {
      const auto delta = static_cast<std::int64_t>(rng.uniform_int(0, 8)) - 4;
      const auto count = static_cast<std::int64_t>(spec.count) + delta;
      spec.count = static_cast<std::uint64_t>(std::max<std::int64_t>(1, count));
      break;
    }
    case 2: {
      const auto delta = static_cast<std::int64_t>(rng.uniform_int(0, 2)) - 1;
      const auto len = static_cast<std::int64_t>(spec.burst_len) + delta;
      spec.burst_len = static_cast<std::uint64_t>(std::clamp<std::int64_t>(len, 1, 16));
      break;
    }
    case 3: {
      const auto jitter_ns = static_cast<std::int64_t>(
          rng.uniform_int(0, 1'000'000)) - 500'000;
      spec.start = spec.start + Duration::ns(jitter_ns);
      break;
    }
    case 4:
      if (spec.period.is_positive()) {
        const double f = rng.uniform_range(0.6, 1.4);
        spec.period = std::max(
            Duration::us(1), Duration::ns(static_cast<std::int64_t>(
                                 static_cast<double>(spec.period.count_ns()) * f)));
      }
      break;
  }
  plan.horizon = horizon;
  clamp_starts(plan, fork_time);
  return plan;
}

/// Restore + arm + run + judge: the per-candidate hot loop.
EvalOutcome evaluate(Worker& w, const HuntConfig& cfg, const FaultPlan& plan,
                     std::uint64_t engine_seed) {
  w.system->restore(w.snap);
  EvalOutcome out;
  {
    // The mutant engine lives only for this evaluation; its destructor
    // removes device-level hooks before the next restore re-establishes the
    // base engine's (the checkpoint client restores last).
    FaultEngine mutant(*w.system, plan, engine_seed);
    mutant.arm();
    (void)w.system->run_continue(w.end_time);
  }
  out.events = w.system->simulator().executed_events() - w.events_at_fork;

  // The oracle and the coverage marks read the trace ring in place.
  const auto& hv = w.system->hypervisor();
  out.report = w.oracle->verify(hv.trace_ring());
  for (const auto block : hv.trace_ring().retained()) out.coverage.mark_points(block);
  const auto n_sources =
      static_cast<std::uint32_t>(w.system->config().sources.size());
  for (std::uint32_t s = 0; s < n_sources; ++s) {
    if (const auto* m = hv.monitor(s)) {
      out.coverage.mark_admission_ratio(s, m->admitted(), m->observed());
    }
  }
  out.coverage.mark_oracle(!out.report.violations.empty(),
                           !out.report.cost_violations.empty(),
                           out.report.worst_ratio);
  if (const auto& latencies = w.system->recorder().all(); !latencies.empty()) {
    out.max_latency_ns = latencies.max().count_ns();
    out.coverage.mark_max_latency(out.max_latency_ns);
  }

  out.finding = !out.report.ok() ||
                (cfg.latency_threshold.is_positive() &&
                 out.max_latency_ns >= cfg.latency_threshold.count_ns());
  return out;
}

/// Greedy shrink on worker 0: drop whole injections, then halve counts,
/// keeping every step that still reproduces the finding.
HuntReproducer minimize(Worker& w, const HuntConfig& cfg, HuntReproducer repro) {
  constexpr int kMaxTrials = 64;
  int trials = 0;
  bool reduced = true;
  while (reduced && trials < kMaxTrials) {
    reduced = false;
    for (std::size_t i = 0; repro.plan.injections.size() > 1 &&
                            i < repro.plan.injections.size() && trials < kMaxTrials;
         ++i) {
      FaultPlan candidate = repro.plan;
      candidate.injections.erase(candidate.injections.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      ++trials;
      if (evaluate(w, cfg, candidate, repro.engine_seed).finding) {
        repro.plan = std::move(candidate);
        reduced = true;
        break;
      }
    }
    for (std::size_t i = 0; i < repro.plan.injections.size(); ++i) {
      if (repro.plan.injections[i].count <= 1 || trials >= kMaxTrials) continue;
      FaultPlan candidate = repro.plan;
      candidate.injections[i].count /= 2;
      ++trials;
      if (evaluate(w, cfg, candidate, repro.engine_seed).finding) {
        repro.plan.injections[i].count /= 2;
        reduced = true;
      }
    }
  }
  return repro;
}

}  // namespace

HuntResult run_hunt(const HuntConfig& cfg) {
  if (!cfg.make_system) {
    throw std::invalid_argument("run_hunt: make_system is required");
  }
  if (cfg.corpus.empty()) {
    throw std::invalid_argument("run_hunt: corpus must hold at least one plan");
  }
  if (!cfg.horizon.is_positive()) {
    throw std::invalid_argument("run_hunt: horizon must be positive");
  }
  // One replica per job that gets a candidate: shard j >= population would
  // build, prefix and snapshot a system that never evaluates anything. At
  // least one, since minimization and events_to_fork read workers[0].
  const std::uint32_t jobs =
      std::max<std::uint32_t>(1, std::min(cfg.jobs, cfg.population));

  // Identical prefix on every replica: build, arm base plan, run to fork,
  // snapshot. The base engine stays alive for the whole hunt -- snapshot
  // callbacks reference it, and it is the checkpoint client whose
  // restore_state re-establishes device hooks after each restore.
  std::vector<Worker> workers(jobs);
  for (auto& w : workers) {
    w.system = cfg.make_system();
    if (w.system == nullptr) {
      throw std::invalid_argument("run_hunt: make_system returned null");
    }
    if (!cfg.base_plan.empty()) {
      w.base_engine = std::make_unique<FaultEngine>(
          *w.system, cfg.base_plan, exp::derive_seed(cfg.seed, 0));
      w.base_engine->arm();
    }
    w.system->set_run_to_horizon(true);
    w.oracle = std::make_unique<InterferenceOracle>(
        InterferenceOracle::params_from(*w.system));
    w.system->start();
    run_to_fork(*w.system, cfg);
    w.snap = w.system->snapshot();
    w.fork_time = w.system->simulator().now();
    w.end_time = TimePoint::origin() + cfg.horizon;
    w.events_at_fork = w.system->simulator().executed_events();
  }

  HuntResult result;
  result.events_to_fork = workers[0].events_at_fork;
  const TimePoint fork_time = workers[0].fork_time;

  std::vector<FaultPlan> corpus = cfg.corpus;
  for (auto& plan : corpus) clamp_starts(plan, fork_time);

  struct Candidate {
    FaultPlan plan;
    std::uint64_t engine_seed = 0;
    std::uint64_t global_index = 0;
  };

  exp::BatchRunner runner(exp::BatchOptions{.jobs = jobs, .chunk = 1});
  bool stop = false;
  for (std::uint32_t gen = 0; gen < cfg.generations && !stop; ++gen) {
    ++result.generations_run;

    // Candidates for the whole generation are derived before anything runs:
    // mutation randomness never depends on evaluation order.
    std::vector<Candidate> candidates(cfg.population);
    for (std::uint32_t i = 0; i < cfg.population; ++i) {
      const std::uint64_t index =
          static_cast<std::uint64_t>(gen) * cfg.population + i;
      sim::Xoshiro256 rng(exp::derive_seed(cfg.seed, 1 + index));
      const FaultPlan& parent = corpus[rng.uniform_int(0, corpus.size() - 1)];
      candidates[i].plan = mutate(parent, rng, fork_time, cfg.horizon);
      candidates[i].engine_seed = exp::derive_seed(cfg.seed, 0x10000 + index);
      candidates[i].global_index = index;
    }

    // Static sharding on the campaign engine: shard j runs candidates j,
    // j + jobs, ... on replica j, results land in their index slot, and the
    // merge below walks index order -- the whole generation is --jobs
    // invariant. A shard stops at its first failing candidate; the error
    // rethrown is the lowest-index one, as in a sequential run. Not
    // map(pool, ...): replicas come from make_system and fork mid-run.
    std::vector<EvalOutcome> outcomes(cfg.population);
    std::vector<std::exception_ptr> errors(cfg.population);
    (void)runner.map(jobs, [&](std::size_t job) {
      std::size_t evaluated = 0;
      for (std::size_t i = job; i < cfg.population; i += jobs, ++evaluated) {
        try {
          outcomes[i] =
              evaluate(workers[job], cfg, candidates[i].plan, candidates[i].engine_seed);
        } catch (...) {
          errors[i] = std::current_exception();
          break;
        }
      }
      return evaluated;
    });
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }

    // Generation barrier: fold in global index order.
    for (std::uint32_t i = 0; i < cfg.population; ++i) {
      auto& out = outcomes[i];
      ++result.evaluations;
      result.sim_events += out.events;
      const bool new_coverage = result.coverage.merge(out.coverage);
      if (cfg.coverage_guided && new_coverage) {
        corpus.push_back(candidates[i].plan);
      }
      if (out.finding && !result.found) {
        result.found = true;
        result.sim_events_at_find = result.sim_events;
        result.report = std::move(out.report);
        result.max_latency_ns = out.max_latency_ns;
        result.reproducer.plan = candidates[i].plan;
        result.reproducer.engine_seed = candidates[i].engine_seed;
        result.reproducer.global_index = candidates[i].global_index;
      }
      if (cfg.event_budget != 0 && result.sim_events >= cfg.event_budget) {
        stop = true;
      }
    }
    if (result.found && cfg.stop_on_violation) stop = true;
  }

  if (result.found && cfg.minimize) {
    result.reproducer = minimize(workers[0], cfg, std::move(result.reproducer));
    auto final_out = evaluate(workers[0], cfg, result.reproducer.plan,
                              result.reproducer.engine_seed);
    result.report = std::move(final_out.report);
    result.max_latency_ns = final_out.max_latency_ns;
  }
  result.corpus_size = corpus.size();
  return result;
}

OracleReport replay_reproducer(const HuntConfig& cfg, const HuntReproducer& repro,
                               std::int64_t* max_latency_ns) {
  auto system = cfg.make_system();
  if (system == nullptr) {
    throw std::invalid_argument("replay_reproducer: make_system returned null");
  }
  std::unique_ptr<FaultEngine> base;
  if (!cfg.base_plan.empty()) {
    base = std::make_unique<FaultEngine>(*system, cfg.base_plan,
                                         exp::derive_seed(cfg.seed, 0));
    base->arm();
  }
  system->set_run_to_horizon(true);
  system->start();
  // Re-run the deterministic prefix and arm at the fork instant, exactly as
  // the in-hunt evaluation did: event sequence numbers are assigned at
  // schedule time, so arming earlier would tie-break same-instant events
  // differently. No snapshot is taken or restored here -- a reproducer that
  // replays this way is independent of the snapshot layer by construction.
  run_to_fork(*system, cfg);
  FaultEngine engine(*system, repro.plan, repro.engine_seed);
  engine.arm();
  (void)system->run_continue(sim::TimePoint::origin() + cfg.horizon);
  const InterferenceOracle oracle(InterferenceOracle::params_from(*system));
  auto report = oracle.verify(system->hypervisor().trace_ring());
  if (max_latency_ns != nullptr) {
    const auto& latencies = system->recorder().all();
    *max_latency_ns = latencies.empty() ? 0 : latencies.max().count_ns();
  }
  return report;
}

}  // namespace rthv::fault
