// hunt_storm: fault::run_hunt on the unweakened monitored paper baseline
// (configs/paper_baseline.ini), corpus configs/fault_storm.plan and
// configs/fault_adversary.plan, a fixed generations x population budget, one
// worker, trace ring on.
//
// The same sim and hv code as paper_suite, used differently: the storm
// pushes the event queue far past its few-pending steady state, and per-event
// cost is dominated by trace emission, the interference oracle, coverage and
// snapshot/restore. A finding on the unweakened baseline is a failure.
//
// Half of the budget times whole hunts (runs_per_s = evaluations per host
// second). The other half replays the corpus plans through the public calls
// one hunt evaluation is made of (restore, arm, run, trace snapshot, oracle),
// on forks of four background traces: that is where IRQs per second,
// per-evaluation time and simulated latency are measured, with the oracle
// checked on every evaluation.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "exp/seed.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/hunt.hpp"
#include "fault/oracle.hpp"
#include "harness.hpp"
#include "workload/generators.hpp"

namespace e2e {
namespace {

namespace core = rthv::core;
namespace fault = rthv::fault;
using rthv::sim::Duration;
using rthv::sim::TimePoint;

constexpr std::uint32_t kGenerations = 8;
constexpr std::uint32_t kPopulation = 32;
constexpr std::size_t kTraceIrqs = 700;  // exponential background, ~1 s at 1444 us
constexpr std::size_t kBackgrounds = 4;  // replayed background traces; the hunt uses the first
const Duration kTraceMean = Duration::us(1444);
const Duration kHorizon = Duration::ms(1000);
const TimePoint kFork = TimePoint::at_us(10'000);

struct Setup {
  core::SystemConfig cfg;
  std::vector<fault::FaultPlan> corpus;
  std::vector<rthv::workload::Trace> traces;  // one per background
};

std::unique_ptr<core::HypervisorSystem> make_system(const core::SystemConfig& cfg,
                                                    const rthv::workload::Trace& trace,
                                                    bool tracing,
                                                    std::vector<double>* enable_us) {
  auto system = [&] {
    const Scoped span("core.construct");
    return std::make_unique<core::HypervisorSystem>(cfg);
  }();
  if (tracing) {
    const Scoped span("obs.enable_tracing");
    const auto t0 = Clock::now();
    system->enable_tracing();
    if (enable_us != nullptr) enable_us->push_back(seconds_since(t0) * 1e6);
  }
  system->attach_trace(0, trace);
  return system;
}

/// A system forked at kFork, ready for evaluations (the hunt's per-worker
/// prefix, through public calls).
struct Replica {
  std::unique_ptr<core::HypervisorSystem> system;
  std::unique_ptr<fault::InterferenceOracle> oracle;
  core::HypervisorSystem::SystemSnapshot snap;
  TimePoint fork_time;
  std::uint64_t completed_at_fork = 0;
  std::uint64_t events_at_fork = 0;
  std::uint64_t emitted_at_fork = 0;
  std::vector<fault::FaultPlan> plans;  // the corpus, starts clamped to the fork
};

fault::FaultPlan clamped(fault::FaultPlan plan, TimePoint fork_time) {
  for (auto& spec : plan.injections) spec.start = std::max(spec.start, fork_time);
  plan.horizon = kHorizon;
  return plan;
}

Replica make_replica(const Setup& s, std::size_t background, bool tracing,
                     std::vector<double>* enable_us) {
  Replica r;
  r.system = make_system(s.cfg, s.traces.at(background), tracing, enable_us);
  r.system->set_run_to_horizon(true);
  r.oracle = std::make_unique<fault::InterferenceOracle>(
      fault::InterferenceOracle::params_from(*r.system));
  {
    const Scoped span("core.run_to_fork");
    r.system->start();
    (void)r.system->run_continue(kFork);
  }
  {
    const Scoped span("fault.snapshot");
    r.snap = r.system->snapshot();
  }
  r.fork_time = r.system->simulator().now();
  r.completed_at_fork = r.system->completed_bottom_handlers();
  r.events_at_fork = r.system->simulator().executed_events();
  r.emitted_at_fork = r.system->hypervisor().trace_ring().emitted();
  for (const auto& plan : s.corpus) r.plans.push_back(clamped(plan, r.fork_time));
  return r;
}

struct EvalTimes {
  std::int64_t restore_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t oracle_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t irqs = 0;
  std::uint64_t records = 0;
  AllocCount allocs;
  fault::OracleReport report;
};

/// One evaluation: restore the fork, arm `plan`, run to the horizon, judge.
EvalTimes evaluate(Replica& r, const fault::FaultPlan& plan, std::uint64_t engine_seed,
                   bool judge, std::uint64_t run_id) {
  EvalTimes t;
  const Scoped eval_span("fault.evaluate", run_id);
  const AllocScope allocs;
  const auto t0 = Clock::now();
  {
    const Scoped span("fault.restore", run_id);
    r.system->restore(r.snap);
  }
  const auto t1 = Clock::now();
  {
    fault::FaultEngine engine(*r.system, plan, engine_seed);
    engine.arm();
    const Scoped span("core.run_continue", run_id);
    (void)r.system->run_continue(TimePoint::origin() + kHorizon);
  }
  const auto t2 = Clock::now();
  if (judge) {
    const Scoped span("fault.oracle", run_id);
    t.report = r.oracle->verify(r.system->trace());
  }
  const auto t3 = Clock::now();
  t.allocs = allocs.delta();
  t.restore_ns = ns_between(t0, t1);
  t.run_ns = ns_between(t1, t2);
  t.oracle_ns = ns_between(t2, t3);
  t.total_ns = ns_between(t0, t3);
  t.irqs = r.system->completed_bottom_handlers() - r.completed_at_fork;
  t.records = r.system->hypervisor().trace_ring().emitted() - r.emitted_at_fork;
  return t;
}

}  // namespace

void run_hunt_storm(const Options& opt, Report& report) {
  Setup s;
  std::vector<double> enable_us;
  std::vector<Replica> replicas;
  const auto release = [&] {
    replicas.clear();
    s = Setup{};
  };
  SetupClock setup(7, release, [&] {
    {
      const Scoped span("core.config_load");
      s.cfg = core::load_config_file(opt.root + "/configs/paper_baseline.ini");
      s.corpus = {fault::load_fault_plan_file(opt.root + "/configs/fault_storm.plan"),
                  fault::load_fault_plan_file(opt.root + "/configs/fault_adversary.plan")};
    }
    {
      const Scoped span("workload.generate");
      for (std::size_t k = 0; k < kBackgrounds; ++k) {
        s.traces.push_back(rthv::workload::ExponentialTraceGenerator(
                               kTraceMean, rthv::exp::derive_seed(opt.seed, k))
                               .generate(kTraceIrqs));
      }
    }
    const Scoped span("bench.replicas");
    for (std::size_t k = 0; k < kBackgrounds; ++k) {
      replicas.push_back(make_replica(s, k, true, &enable_us));
    }
  });

  fault::HuntConfig hunt;
  hunt.make_system = [&s] { return make_system(s.cfg, s.traces[0], true, nullptr); };
  hunt.corpus = s.corpus;
  hunt.fork.kind = fault::HuntForkPoint::Kind::kTime;
  hunt.fork.time = kFork;
  hunt.horizon = kHorizon;
  hunt.seed = opt.seed;
  hunt.generations = kGenerations;
  hunt.population = kPopulation;
  hunt.jobs = 1;

  const double budget = opt.trace ? opt.seconds * 0.6 : opt.seconds;
  const auto start = Clock::now();

  // Whole hunts.
  double hunt_s = 0;
  std::uint64_t evaluations = 0;
  std::vector<Pass> hunts;
  std::string hunt_digest;
  fault::HuntResult last;
  for (std::uint64_t rep = 0; rep == 0 || seconds_since(start) < budget / 2; ++rep) {
    setup.between_passes();
    next_cpus(1);
    const Scoped span("fault.run_hunt", rep);
    const auto t0 = Clock::now();
    last = fault::run_hunt(hunt);
    const double s = seconds_since(t0);
    hunt_s += s;
    hunts.push_back(Pass{s, 0, last.evaluations, {}});
    evaluations += last.evaluations;
    report.attempted += last.evaluations;
    if (last.found) {
      report.fail(1, "hunt " + std::to_string(rep) + " found an oracle violation at candidate " +
                         std::to_string(last.reproducer.global_index));
    }
    Digest d;
    d.add(last.found ? 1 : 0);
    d.add(last.evaluations);
    d.add(last.generations_run);
    d.add(last.corpus_size);
    d.add_str(last.coverage.to_hex());
    if (rep == 0) {
      hunt_digest = d.hex();
    } else if (d.hex() != hunt_digest) {
      report.fail(last.evaluations, "hunt " + std::to_string(rep) + " digest differs");
    }
  }

  // Corpus replay through the evaluation's public calls; each round (every
  // corpus plan on every replica) is one timed pass.
  std::vector<double> restore_us, oracle_us;
  std::vector<Pass> rounds;
  std::string replay_digest;
  rthv::stats::LatencyRecorder latency;
  std::vector<EvalTimes> round0;
  for (std::uint64_t round = 0; round == 0 || seconds_since(start) < budget; ++round) {
    setup.between_passes();
    next_cpus(1);
    Digest d;
    Pass pass;
    for (auto& replica : replicas) {
      for (std::size_t p = 0; p < replica.plans.size(); ++p) {
        const auto t = evaluate(replica, replica.plans[p],
                                rthv::exp::derive_seed(opt.seed, 1 + p), true, round);
        restore_us.push_back(static_cast<double>(t.restore_ns) / 1e3);
        oracle_us.push_back(static_cast<double>(t.oracle_ns) / 1e3);
        pass.seconds += static_cast<double>(t.total_ns) / 1e9;
        pass.irqs += t.irqs;
        ++pass.runs;
        ++report.attempted;
        if (!t.report.ok()) {
          report.fail(1, "oracle violation replaying corpus plan " + std::to_string(p));
        }
        d.add_recorder(replica.system->recorder());
        d.add(t.irqs);
        d.add(t.report.interpositions);
        d.add(t.report.windows_checked);
        d.add(t.report.spans_checked);
        d.add(t.report.preempted_spans);
        d.add_i64(t.report.max_interposition_ns);
        if (round == 0) {
          latency.merge(replica.system->recorder());
          round0.push_back(t);
        }
      }
    }
    // One run-time sample per round (mean per evaluation), so the storm and
    // adversary plans do not split the distribution in two.
    pass.run_us.push_back(pass.seconds * 1e6 / static_cast<double>(pass.runs));
    if (round == 0) {
      replay_digest = d.hex();
    } else if (d.hex() != replay_digest) {
      report.fail(pass.runs, "replay round " + std::to_string(round) + " digest differs");
    }
    rounds.push_back(std::move(pass));
  }
  Digest both;
  both.add_str(hunt_digest);
  both.add_str(replay_digest);
  report.digest = both.hex();

  report_end_to_end(report, setup.median_s(), rounds, hunts, latency);
  std::cerr << "hunt_storm: " << evaluations << " hunt evaluations in " << hunt_s << " s, "
            << rounds.size() << " corpus replay rounds, " << latency.total()
            << " latency samples/round\n";
  if (!opt.trace) return;

  // --- per-layer attribution ------------------------------------------------
  std::uint64_t round_irqs = 0, round_records = 0, round_allocs = 0, round_bytes = 0;
  for (const auto& t : round0) {
    round_irqs += t.irqs;
    round_records += t.records;
    round_allocs += t.allocs.allocs;
    round_bytes += t.allocs.bytes;
  }
  auto& replica = replicas[0];
  const auto& plans = replica.plans;
  const auto& ring = replica.system->hypervisor().trace_ring();
  report.metric("obs.enable_tracing_us", median(enable_us), "us");
  report.metric("obs.trace_records_per_irq",
                static_cast<double>(round_records) / static_cast<double>(round_irqs), "count");
  report.metric("obs.trace_dropped_frac",
                ring.emitted() ? static_cast<double>(ring.dropped()) /
                                     static_cast<double>(ring.emitted())
                               : 0.0,
                "frac");
  std::vector<double> snapshot_us;
  for (int i = 0; i < 5; ++i) {
    const Scoped span("fault.snapshot");
    const auto t0 = Clock::now();
    const auto snap = replica.system->snapshot();
    snapshot_us.push_back(seconds_since(t0) * 1e6);
  }
  report.metric("fault.snapshot_us", median(snapshot_us), "us");
  report.metric("fault.restore_us", median(restore_us), "us");
  report.metric("fault.oracle_us", median(oracle_us), "us");
  const auto evals = static_cast<double>(round0.size());
  report.metric("fault.allocs_per_eval", static_cast<double>(round_allocs) / evals, "count");
  report.metric("fault.eval_kib", static_cast<double>(round_bytes) / 1024.0 / evals, "KiB");
  report.metric("fault.sim_events_per_eval",
                static_cast<double>(last.sim_events) / static_cast<double>(last.evaluations),
                "count");
  report.metric("fault.coverage_bits", last.coverage.count(), "count");
  report.metric("fault.corpus_gain_frac",
                static_cast<double>(last.corpus_size) / static_cast<double>(last.evaluations),
                "frac");

  // Storm plan: events per IRQ and peak pending events sampled at the end
  // of every 10 ms run_continue slice.
  {
    auto& sys = *replica.system;
    sys.restore(replica.snap);
    fault::FaultEngine engine(sys, plans[0], rthv::exp::derive_seed(opt.seed, 1));
    engine.arm();
    std::size_t pending_max = 0;
    const auto end = TimePoint::origin() + kHorizon;
    while (!sys.simulator().idle() && sys.simulator().now() < end) {
      (void)sys.run_continue(std::min(end, sys.simulator().now() + Duration::ms(10)));
      pending_max = std::max(pending_max, sys.simulator().pending_events());
    }
    const auto storm_irqs = sys.completed_bottom_handlers() - replica.completed_at_fork;
    report.metric("sim.storm_events_per_irq",
                  static_cast<double>(sys.simulator().executed_events() - replica.events_at_fork) /
                      static_cast<double>(storm_irqs),
                  "count");
    report.metric("sim.storm_pending_max", static_cast<double>(pending_max), "count");
  }

  // Trace-ring variant: the same evaluations on a replica without the ring
  // (no oracle), interleaved with traced ones; ns per IRQ difference.
  Replica untraced = make_replica(s, 0, false, nullptr);
  std::vector<double> on_ns, off_ns;
  for (int rep = 0; rep < 5; ++rep) {
    double on = 0, off = 0;
    std::uint64_t on_irqs = 0, off_irqs = 0;
    for (std::size_t p = 0; p < plans.size(); ++p) {
      const auto seed = rthv::exp::derive_seed(opt.seed, 1 + p);
      const auto a = evaluate(replica, plans[p], seed, false, rep);
      const auto b = evaluate(untraced, plans[p], seed, false, rep);
      // Emission happens while running; the ring copy a restore makes shows
      // in fault.restore_us instead.
      on += static_cast<double>(a.run_ns);
      off += static_cast<double>(b.run_ns);
      on_irqs += a.irqs;
      off_irqs += b.irqs;
    }
    on_ns.push_back(on / static_cast<double>(on_irqs));
    off_ns.push_back(off / static_cast<double>(off_irqs));
  }
  report.metric("obs.trace_ns_per_irq", median(on_ns) - median(off_ns), "ns");
}

}  // namespace e2e
