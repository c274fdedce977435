// paper_suite: long single-core runs of the paper's scenarios on the
// paper_baseline topology, one system per step, one thread, no trace ring.
//
//   Fig. 6a unmonitored, 6b delta-min monitored, 6c floored at d_min, each at
//   1 / 5 / 10 % IRQ load, plus a Fig. 7-style ECU trace under a learning
//   delta^-[5] monitor bounded to 25 % of the recorded load.
//
// Per-IRQ work dominates and set-up is small, so this is where the event
// core, dispatch, admission and latency-recording path shows.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/irq_latency.hpp"
#include "core/analysis_facade.hpp"
#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "exp/run_result.hpp"
#include "exp/seed.hpp"
#include "harness.hpp"
#include "mon/learning_monitor.hpp"
#include "workload/ecu_trace.hpp"
#include "workload/generators.hpp"

namespace e2e {
namespace {

namespace core = rthv::core;
using rthv::sim::Duration;
using rthv::stats::HandlingClass;

// IRQs per Fig. 6 step by load: a 1 % step simulates ~9 events per IRQ
// against ~3.5 at 10 %, so the counts even out the host time per step.
std::size_t irqs_for_load(int load_percent) {
  return load_percent <= 1 ? 50'000 : load_percent <= 5 ? 80'000 : 100'000;
}
constexpr std::size_t kEcuActivations = 100'000;
constexpr std::size_t kEcuDepth = 5;
constexpr double kEcuLoadFraction = 0.25;
const Duration kHorizon = Duration::s(10'000'000);  // runs end on completion

struct Step {
  std::string name;
  core::SystemConfig cfg;
  rthv::workload::Trace trace;
  // Analytic bounds (Eq. 16 interposed, Eq. 11/12 delayed) where the
  // admitted activations follow a known event model.
  std::optional<Duration> interposed_bound;
  std::optional<Duration> delayed_bound;  // only for conforming (floored) steps
};

struct Suite {
  std::vector<Step> steps;
  std::size_t baseline = 0;  // 6b at 10 %: the monitored paper baseline
  std::size_t ecu = 0;
  Duration d_min;
};

// Per-call host timings collected during set-up (traced runs report them).
struct SetupTimes {
  std::vector<double> config_load_us;
  std::vector<double> generate_ns_per_irq;
  std::vector<double> analysis_us;
  std::vector<double> construct_us;
  std::vector<AllocCount> construct_allocs;  // per step, latest build
};

Suite make_suite(const Options& opt, SetupTimes& times) {
  Suite suite;
  core::SystemConfig base;
  {
    const Scoped span("core.config_load");
    const auto t0 = Clock::now();
    base = core::load_config_file(opt.root + "/configs/paper_baseline.ini");
    times.config_load_us.push_back(seconds_since(t0) * 1e6);
  }
  // Fig. 6 fixes d_min at the highest load's lambda: C'_BH / 10 %.
  const auto c_bh_eff = rthv::analysis::effective_bottom_cost(
      base.sources.at(0).c_bottom, core::AnalysisFacade(base).overhead_times());
  suite.d_min = Duration::ns(c_bh_eff.count_ns() * 100 / 10);

  const auto generate = [&](auto&& gen_fn, std::size_t irqs) {
    const Scoped span("workload.generate");
    const auto t0 = Clock::now();
    auto trace = gen_fn();
    times.generate_ns_per_irq.push_back(seconds_since(t0) * 1e9 /
                                        static_cast<double>(irqs));
    return trace;
  };

  const char* figs[] = {"6a", "6b", "6c"};
  const int loads[] = {1, 5, 10};
  std::uint64_t index = 0;
  for (int f = 0; f < 3; ++f) {
    for (const int load : loads) {
      Step step;
      step.name = std::string(figs[f]) + "@" + std::to_string(load) + "%";
      step.cfg = base;
      if (f == 0) {
        step.cfg.mode = rthv::hv::TopHandlerMode::kOriginal;
        step.cfg.sources[0].monitor = core::MonitorKind::kNone;
      } else {
        step.cfg.mode = rthv::hv::TopHandlerMode::kInterposing;
        step.cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
        step.cfg.sources[0].d_min = suite.d_min;
      }
      const auto lambda = Duration::ns(c_bh_eff.count_ns() * 100 / load);
      const auto floor = f == 2 ? suite.d_min : Duration::zero();
      const auto seed = rthv::exp::derive_seed(opt.seed, index++);
      step.trace = generate(
          [&] {
            return rthv::workload::ExponentialTraceGenerator(lambda, seed, floor)
                .generate(irqs_for_load(load));
          },
          irqs_for_load(load));
      if (f == 1 && load == 10) suite.baseline = suite.steps.size();
      suite.steps.push_back(std::move(step));
    }
  }

  Step ecu;
  ecu.name = "ecu-learning-d5";
  rthv::workload::EcuTraceConfig ecu_cfg;
  ecu_cfg.target_activations = kEcuActivations;
  ecu_cfg.seed = rthv::exp::derive_seed(opt.seed, index++);
  ecu.trace = generate([&] { return rthv::workload::EcuTraceSynthesizer(ecu_cfg).synthesize(); },
                       kEcuActivations);
  const std::size_t learn = ecu.trace.size() / 10;
  ecu.cfg = base;
  ecu.cfg.mode = rthv::hv::TopHandlerMode::kInterposing;
  ecu.cfg.sources[0].monitor = core::MonitorKind::kLearning;
  ecu.cfg.sources[0].learning_depth = kEcuDepth;
  ecu.cfg.sources[0].learning_events = learn;
  ecu.cfg.sources[0].delta_vector = rthv::mon::scale_for_load_fraction(
      ecu.trace.prefix(learn).delta_vector(kEcuDepth), kEcuLoadFraction);
  suite.ecu = suite.steps.size();
  suite.steps.push_back(std::move(ecu));

  // Bounds for the monitored Fig. 6 steps: admitted activations follow the
  // sporadic d_min model; only floored (6c) arrivals conform as a whole, so
  // only there does the delayed bound apply to every class.
  for (std::size_t i = 3; i < 9; ++i) {
    auto& step = suite.steps[i];
    const Scoped span("analysis.compare");
    const auto t0 = Clock::now();
    const core::AnalysisFacade facade(step.cfg);
    const auto cmp = facade.compare(0, rthv::analysis::make_sporadic(suite.d_min), true);
    times.analysis_us.push_back(seconds_since(t0) * 1e6);
    if (cmp.interposed) step.interposed_bound = cmp.interposed->worst_case;
    if (i >= 6 && cmp.tdma_delayed) step.delayed_bound = cmp.tdma_delayed->worst_case;
  }
  return suite;
}

std::vector<std::unique_ptr<core::HypervisorSystem>> build_systems(const Suite& suite,
                                                                   SetupTimes& times) {
  std::vector<std::unique_ptr<core::HypervisorSystem>> systems;
  times.construct_allocs.clear();
  for (const auto& step : suite.steps) {
    const Scoped span("core.construct");
    const auto t0 = Clock::now();
    const AllocScope allocs;
    auto system = std::make_unique<core::HypervisorSystem>(step.cfg);
    times.construct_allocs.push_back(allocs.delta());
    system->attach_trace(0, step.trace);
    times.construct_us.push_back(seconds_since(t0) * 1e6);
    systems.push_back(std::move(system));
  }
  return systems;
}

/// Host ns per IRQ of one like-for-like run of `cfg` on `trace`.
double run_ns_per_irq(const core::SystemConfig& cfg, const rthv::workload::Trace& trace) {
  core::HypervisorSystem system(cfg);
  system.attach_trace(0, trace);
  const Scoped span("core.run");
  const auto t0 = Clock::now();
  const auto done = system.run(kHorizon);
  return seconds_since(t0) * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, done));
}

/// Lower of the per-class slack (bound - observed max) over the steps that
/// have bounds, in microseconds.
double min_bound_slack_us(const Suite& suite,
                          const std::vector<std::unique_ptr<core::HypervisorSystem>>& systems) {
  double slack = 1e300;
  for (std::size_t i = 0; i < suite.steps.size(); ++i) {
    const auto& step = suite.steps[i];
    const auto& rec = systems[i]->recorder();
    const auto consider = [&](HandlingClass cls, const std::optional<Duration>& bound) {
      if (!bound || rec.of(cls).empty()) return;
      const double s = (*bound - rec.of(cls).max()).as_us();
      std::cerr << "  bound slack " << step.name << " " << rthv::stats::to_string(cls) << ": "
                << s << " us (bound " << bound->as_us() << " us)\n";
      slack = std::min(slack, s);
    };
    consider(HandlingClass::kInterposed, step.interposed_bound);
    consider(HandlingClass::kDirect, step.delayed_bound);
    consider(HandlingClass::kDelayed, step.delayed_bound);
  }
  return slack;
}

}  // namespace

void run_paper_suite(const Options& opt, Report& report) {
  SetupTimes times;
  Suite suite;
  std::vector<std::unique_ptr<core::HypervisorSystem>> systems;
  const auto release = [&] {
    systems.clear();
    suite = Suite{};
  };
  SetupClock setup(5, release, [&] {
    suite = make_suite(opt, times);
    systems = build_systems(suite, times);
  });

  // Timed region: the run() calls only. Later passes rebuild their systems
  // outside it.
  std::vector<Pass> passes;
  std::string first_digest;
  rthv::stats::LatencyRecorder latency;
  std::vector<double> baseline_ns_per_irq, baseline_ns_per_event;
  AllocCount baseline_allocs;
  std::uint64_t baseline_events = 0, baseline_irqs = 0;
  const double budget = opt.trace ? opt.seconds * 0.6 : opt.seconds;
  const auto start = Clock::now();
  for (std::uint64_t pass = 0; pass == 0 || seconds_since(start) < budget; ++pass) {
    setup.between_passes();
    next_cpus(1);
    if (pass > 0) systems = build_systems(suite, times);
    const Scoped pass_span("bench.pass", pass);
    for (std::size_t i = 0; i < systems.size(); ++i) {
      auto& system = *systems[i];
      const AllocScope allocs;
      const Scoped span("core.run", pass);
      const auto t0 = Clock::now();
      const auto done = system.run(kHorizon);
      const double s = seconds_since(t0);
      passes.push_back(Pass{s, done, 1, {s * 1e6}, i});
      if (i == suite.baseline) {
        const auto events = system.simulator().executed_events();
        baseline_ns_per_irq.push_back(s * 1e9 / static_cast<double>(done));
        baseline_ns_per_event.push_back(s * 1e9 / static_cast<double>(events));
        baseline_allocs = allocs.delta();
        baseline_events = events;
        baseline_irqs = done;
      }
    }

    // Checks, outside the timed region.
    Digest digest;
    for (std::size_t i = 0; i < systems.size(); ++i) {
      const auto& step = suite.steps[i];
      check_conservation(opt, report, conservation(*systems[i], step.trace.size()),
                         step.name, pass);
      digest.add_str(step.name);
      digest.add_run(rthv::exp::RunResult::capture(*systems[i]));
    }
    report.attempted += systems.size();
    if (pass == 0) {
      first_digest = digest.hex();
      for (const auto& system : systems) latency.merge(system->recorder());
    } else if (digest.hex() != first_digest) {
      report.fail(systems.size(), "pass " + std::to_string(pass) + " digest " + digest.hex() +
                                      " differs from pass 0 " + first_digest);
    }
  }
  report.digest = first_digest;

  report_end_to_end(report, setup.median_s(), passes, passes, latency);
  std::cerr << "paper_suite: " << passes.size() / suite.steps.size() << " passes of "
            << suite.steps.size()
            << " steps, " << latency.total() << " latency samples/pass\n";
  if (!opt.trace) return;

  // --- per-layer attribution ------------------------------------------------
  const auto& base_step = suite.steps[suite.baseline];
  const auto& base_sys = *systems[suite.baseline];
  const auto irqs = static_cast<double>(baseline_irqs);
  report.metric("workload.generate_ns_per_irq", median(times.generate_ns_per_irq), "ns");
  report.metric("core.config_load_us", median(times.config_load_us), "us");
  report.metric("core.construct_us", median(times.construct_us), "us");
  const auto& construct = times.construct_allocs[suite.baseline];
  report.metric("core.construct_allocs", static_cast<double>(construct.allocs), "count");
  report.metric("core.construct_kib", static_cast<double>(construct.bytes) / 1024.0, "KiB");
  report.metric("analysis.bound_us", median(times.analysis_us), "us");
  report.metric("analysis.bound_slack_us_min", min_bound_slack_us(suite, systems), "us");
  report.metric("core.run_ns_per_irq", median(baseline_ns_per_irq), "ns");
  report.metric("core.run_ns_per_event", median(baseline_ns_per_event), "ns");
  report.metric("core.run_allocs_per_kirq",
                static_cast<double>(baseline_allocs.allocs) * 1000.0 / irqs, "count");
  report.metric("core.run_kib_per_kirq", static_cast<double>(baseline_allocs.bytes) / irqs,
                "KiB");
  report.metric("sim.events_per_irq", static_cast<double>(baseline_events) / irqs, "count");
  const auto& ctx = base_sys.hypervisor().context_switches();
  report.metric("hv.interpose_per_irq", static_cast<double>(ctx.interpose_enter) / irqs, "count");
  report.metric("hv.tdma_switches_per_irq", static_cast<double>(ctx.tdma) / irqs, "count");

  // Peak pending events, sampled at the end of every 10 ms run_continue slice.
  {
    core::HypervisorSystem system(base_step.cfg);
    system.attach_trace(0, base_step.trace);
    system.start();
    std::size_t pending_max = 0;
    const Scoped span("core.run_sliced");
    while (!system.simulator().idle() &&
           !conservation(system, base_step.trace.size()).holds()) {
      (void)system.run_continue(system.simulator().now() + Duration::ms(10));
      pending_max = std::max(pending_max, system.simulator().pending_events());
    }
    report.metric("sim.pending_max", static_cast<double>(pending_max), "count");
  }

  // Like-for-like variants, interleaved, medians of 3: the baseline trace
  // with the monitor off (dispatch without admission), and the ECU trace with
  // and without its learning monitor (admission's share of a run).
  auto off_cfg = base_step.cfg;
  off_cfg.mode = rthv::hv::TopHandlerMode::kOriginal;
  off_cfg.sources[0].monitor = core::MonitorKind::kNone;
  const auto& ecu = suite.steps[suite.ecu];
  auto ecu_off = ecu.cfg;
  ecu_off.mode = rthv::hv::TopHandlerMode::kOriginal;
  ecu_off.sources[0].monitor = core::MonitorKind::kNone;
  std::vector<double> dispatch, ecu_on_ns, ecu_off_ns;
  for (int rep = 0; rep < 3; ++rep) {
    dispatch.push_back(run_ns_per_irq(off_cfg, base_step.trace));
    ecu_on_ns.push_back(run_ns_per_irq(ecu.cfg, ecu.trace));
    ecu_off_ns.push_back(run_ns_per_irq(ecu_off, ecu.trace));
  }
  report.metric("hv.dispatch_ns_per_irq", median(dispatch), "ns");
  report.metric("mon.admit_ns_per_irq", median(ecu_on_ns) - median(ecu_off_ns), "ns");

  // The ECU arrival sequence replayed through the monitor's public check.
  {
    const auto arrivals = ecu.trace.activation_times();
    const auto& src = ecu.cfg.sources[0];
    std::vector<double> call_ns;
    for (int rep = 0; rep < 5; ++rep) {
      rthv::mon::LearningDeltaMonitor monitor(src.learning_depth, src.learning_events,
                                              src.delta_vector);
      const Scoped span("mon.record_and_check");
      const auto t0 = Clock::now();
      std::uint64_t admitted = 0;
      for (const auto t : arrivals) admitted += monitor.record_and_check(t) ? 1 : 0;
      call_ns.push_back(seconds_since(t0) * 1e9 / static_cast<double>(arrivals.size()));
      if (admitted != monitor.admitted()) report.fail(1, "monitor admitted count mismatch");
    }
    report.metric("mon.admit_call_ns", median(call_ns), "ns");
  }
  const auto* monitor = systems[suite.ecu]->hypervisor().monitor(0);
  const double observed = monitor ? static_cast<double>(monitor->observed()) : 0.0;
  report.metric("mon.denied_frac",
                observed > 0 ? (observed - static_cast<double>(monitor->admitted())) / observed
                             : 0.0,
                "frac");
}

}  // namespace e2e
