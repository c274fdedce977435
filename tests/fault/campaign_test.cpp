// End-to-end fault-injection campaigns on the monitored paper baseline.
//
// Three guarantees are pinned here:
//  1. Soundness: every committed plan in configs/ runs clean -- the monitor
//     holds all admitted interference within I(dt) = ceil(dt/d_min) * C'_BH
//     no matter how adversarial the injected workload is.
//  2. Falsifiability: a deliberately weakened monitor (test-only hook) makes
//     the oracle fail. An oracle nothing can fail verifies nothing.
//  3. Determinism: a fault sweep merges bit-identically for any --jobs
//     value, and the adversary campaign's full trace matches a committed
//     golden file (tests/fault/golden_adversary_trace.txt; regenerate with
//     RTHV_UPDATE_GOLDEN=1 ./build/tests/test_fault).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/hypervisor_system.hpp"
#include "exp/batch_runner.hpp"
#include "exp/run_result.hpp"
#include "exp/seed.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/oracle.hpp"
#include "obs/exporters.hpp"
#include "workload/generators.hpp"

namespace rthv::fault {
namespace {

using sim::Duration;
using sim::TimePoint;

core::SystemConfig monitored_baseline() {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(1444);
  return cfg;
}

std::string config_path(const char* plan) {
  return std::string(RTHV_CONFIG_DIR) + "/" + plan;
}

struct CampaignOutput {
  OracleReport report;
  std::uint64_t injected = 0;
  std::string trace_text;
};

/// Runs `plan` against the monitored baseline with a light background
/// workload on the monitored source and replays the trace through the
/// oracle.
CampaignOutput run_campaign(const FaultPlan& plan, std::uint64_t seed,
                            bool with_workload = true, bool weaken = false) {
  core::HypervisorSystem system(monitored_baseline());
  if (weaken) weaken_monitor_for_test(system, 0, 4);
  system.enable_tracing();
  if (with_workload) {
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 2014);
    system.attach_trace(0, gen.generate(64));
  }
  FaultEngine engine(system, plan, seed);
  engine.arm();
  const Duration horizon = plan.horizon.is_positive() ? plan.horizon : Duration::s(1);
  system.run(horizon);

  CampaignOutput out;
  out.injected = engine.total_injected();
  const InterferenceOracle oracle(InterferenceOracle::params_from(system));
  out.report = oracle.verify(system.trace());
  const auto meta = system.trace_meta();
  out.trace_text = obs::render_text(system.trace(), &meta);
  return out;
}

TEST(FaultCampaignTest, CommittedStormPlanRunsClean) {
  const auto plan = load_fault_plan_file(config_path("fault_storm.plan"));
  const auto out = run_campaign(plan, 1);
  EXPECT_EQ(out.injected, 80u);  // 20 bursts x 4 raises
  EXPECT_GT(out.report.interpositions, 0u);
  EXPECT_TRUE(out.report.ok()) << "storm plan must not break the monitor";
  EXPECT_LE(out.report.worst_ratio, 1.0);
}

TEST(FaultCampaignTest, CommittedCampaignPlanRunsClean) {
  const auto plan = load_fault_plan_file(config_path("fault_campaign.plan"));
  const auto out = run_campaign(plan, 1);
  EXPECT_GT(out.injected, 0u);
  EXPECT_TRUE(out.report.ok())
      << "storm + drift + overrun must not break the monitor";
}

TEST(FaultCampaignTest, CommittedAdversaryPlanRunsClean) {
  const auto plan = load_fault_plan_file(config_path("fault_adversary.plan"));
  const auto out = run_campaign(plan, 1, /*with_workload=*/false);
  EXPECT_EQ(out.injected, 200u);
  EXPECT_TRUE(out.report.ok())
      << "the greedy adversary must stay within the bound";
  // The adversary raises at the earliest admissible instant; the oracle's
  // worst window must come out at exactly the bound, never over it.
  EXPECT_DOUBLE_EQ(out.report.worst_ratio, 1.0);
}

/// In-code plan whose raises conform to a weakened monitor but violate the
/// configured d_min: 400us spacing sits between 1444us/4 = 361us and 1444us.
FaultPlan weakening_probe_plan() {
  InjectionSpec spec;
  spec.kind = FaultKind::kFlood;
  spec.source = 0;
  spec.start = TimePoint::at_us(10'000);
  spec.count = 50;
  spec.distance = Duration::us(400);
  FaultPlan plan;
  plan.injections.push_back(spec);
  plan.horizon = Duration::ms(100);
  return plan;
}

TEST(FaultCampaignTest, WeakenedMonitorFailsTheOracle) {
  const auto out = run_campaign(weakening_probe_plan(), 1,
                                /*with_workload=*/false, /*weaken=*/true);
  EXPECT_FALSE(out.report.ok())
      << "a monitor enforcing d_min/4 must produce oracle violations";
  EXPECT_GT(out.report.violations.size(), 0u);
  EXPECT_GT(out.report.worst_ratio, 1.0);
}

TEST(FaultCampaignTest, IntactMonitorDeniesTheSameProbe) {
  // The identical flood against the configured monitor: everything closer
  // than d_min is denied, so the admitted stream stays conforming.
  const auto out = run_campaign(weakening_probe_plan(), 1,
                                /*with_workload=*/false, /*weaken=*/false);
  EXPECT_TRUE(out.report.ok());
  EXPECT_LE(out.report.interpositions, 2u)
      << "constant 400us spacing admits at most the opening activation";
}

TEST(FaultCampaignTest, QueueOverflowUnderFloodIsCountedAndTraced) {
  // Satellite check for hv/irq_queue: a flood past capacity must surface as
  // the irq_queue/dropped metric and kIrqDrop trace events, not silence.
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.irq_queue_capacity = 4;
  core::HypervisorSystem system(cfg);
  system.enable_tracing();

  InjectionSpec spec;
  spec.kind = FaultKind::kFlood;
  spec.source = 0;
  spec.start = TimePoint::at_us(100);  // partition 0's slot: foreign, so all queue
  spec.count = 50;
  spec.distance = Duration::us(10);
  FaultPlan plan;
  plan.injections.push_back(spec);
  plan.horizon = Duration::ms(50);

  FaultEngine engine(system, plan, 1);
  engine.arm();
  system.run(plan.horizon);

  EXPECT_EQ(engine.total_injected(), 50u);
  const auto metrics = system.metrics_snapshot();
  EXPECT_EQ(metrics.counter_value("fault/injected/flood"), 50u);
  const auto dropped = metrics.counter_value("irq_queue/dropped");
  EXPECT_GT(dropped, 0u);

  std::uint64_t drop_events = 0;
  for (const auto& e : system.trace()) {
    if (e.point == obs::TracePoint::kIrqDrop) ++drop_events;
  }
  EXPECT_EQ(drop_events, dropped) << "every counted drop must also be traced";
}

TEST(FaultCampaignTest, CampaignIsAPureFunctionOfSeed) {
  const auto plan = load_fault_plan_file(config_path("fault_campaign.plan"));
  const auto a = run_campaign(plan, 42);
  const auto b = run_campaign(plan, 42);
  const auto c = run_campaign(plan, 43);
  EXPECT_EQ(a.trace_text, b.trace_text);
  EXPECT_EQ(a.injected, b.injected);
  // A different campaign seed moves the randomized injectors (drift jitter),
  // so the trace must differ -- otherwise the seed is not actually wired in.
  EXPECT_NE(a.trace_text, c.trace_text);
}

// A fault sweep merged in run-index order is bit-identical for any job
// count: per-run campaign seeds come from derive_seed, injectors register
// metrics in plan order, and no injector touches shared state.
exp::RunResult run_fault_sweep(std::size_t jobs, const FaultPlan& plan) {
  constexpr std::size_t kRuns = 6;
  exp::BatchRunner runner(exp::BatchOptions{.jobs = jobs, .chunk = 1});
  auto runs = runner.map(kRuns, [&plan](std::size_t i) {
    core::HypervisorSystem system(monitored_baseline());
    system.enable_tracing();
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 2014 + i);
    system.attach_trace(0, gen.generate(64));
    FaultEngine engine(system, plan, exp::derive_seed(2014, i));
    engine.arm();
    system.run(plan.horizon.is_positive() ? plan.horizon : Duration::s(1));
    return exp::RunResult::capture(system);
  });
  exp::RunResult merged = std::move(runs[0]);
  for (std::size_t i = 1; i < runs.size(); ++i) merged.merge(std::move(runs[i]));
  return merged;
}

TEST(FaultCampaignTest, SweepIsJobCountIndependent) {
  const auto plan = load_fault_plan_file(config_path("fault_storm.plan"));
  const auto sequential = run_fault_sweep(1, plan);
  const auto parallel = run_fault_sweep(exp::hardware_jobs(), plan);

  std::ostringstream js, jp;
  sequential.metrics.write_json(js);
  parallel.metrics.write_json(jp);
  EXPECT_EQ(js.str(), jp.str()) << "merged fault metrics must be bit-identical";
  EXPECT_EQ(obs::render_text(sequential.trace, &sequential.trace_meta),
            obs::render_text(parallel.trace, &parallel.trace_meta))
      << "merged fault trace stream must be bit-identical";
  EXPECT_GT(sequential.metrics.counter_value("fault/injected/storm"), 0u);
}

std::string golden_path() {
  return std::string(RTHV_FAULT_GOLDEN_DIR) + "/golden_adversary_trace.txt";
}

TEST(FaultCampaignTest, AdversaryTraceMatchesGoldenFile) {
  const auto plan = load_fault_plan_file(config_path("fault_adversary.plan"));
  // No random injectors and no workload: the adversary plan is integer-only,
  // so its trace is exact and platform-independent.
  const auto out = run_campaign(plan, 1, /*with_workload=*/false);
  ASSERT_GT(out.trace_text.size(), 1000u) << "trace suspiciously small";

  if (std::getenv("RTHV_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path());
    ASSERT_TRUE(os) << "cannot write " << golden_path();
    os << out.trace_text;
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream is(golden_path());
  ASSERT_TRUE(is) << "missing golden file " << golden_path()
                  << " -- regenerate with RTHV_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(out.trace_text, golden.str())
      << "adversary campaign trace diverged from the committed golden stream";
}

}  // namespace
}  // namespace rthv::fault
