// Golden-trace regression + observer-effect tests.
//
// The committed golden file (tests/obs/golden_trace.txt) pins the exact
// typed-event stream the monitored paper baseline produces for a fixed
// workload. Any change to instrumentation points, event ordering or the
// text renderer shows up as a diff; regenerate deliberately with
//     RTHV_UPDATE_GOLDEN=1 ./build/tests/test_obs
// and review the diff like any other golden update.
//
// The observer-effect tests pin the layer's core guarantee: enabling
// tracing/metrics changes no simulation output, and per-run metrics merged
// in run-index order are bit-identical for any --jobs value.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/hypervisor_system.hpp"
#include "exp/batch_runner.hpp"
#include "exp/run_result.hpp"
#include "obs/exporters.hpp"
#include "workload/generators.hpp"

namespace rthv {
namespace {

using sim::Duration;

core::SystemConfig monitored_baseline() {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(1444);
  return cfg;
}

struct RunOutput {
  std::string summary;       // recorder text (the user-visible result)
  std::string metrics_json;  // metrics snapshot serialization
  std::uint64_t completed = 0;
  std::uint64_t executed_events = 0;
  std::string trace_text;    // empty when tracing was off
};

RunOutput run_baseline(bool tracing, std::uint64_t seed = 2014,
                       std::size_t irqs = 48) {
  core::HypervisorSystem system(monitored_baseline());
  if (tracing) system.enable_tracing();
  workload::ExponentialTraceGenerator gen(Duration::us(1444), seed);
  system.attach_trace(0, gen.generate(irqs));
  RunOutput out;
  out.completed = system.run(Duration::s(10));
  out.executed_events = system.simulator().executed_events();
  std::ostringstream summary;
  system.recorder().write_summary(summary);
  out.summary = summary.str();
  std::ostringstream metrics;
  system.metrics_snapshot().write_json(metrics);
  out.metrics_json = metrics.str();
  if (tracing) {
    const auto meta = system.trace_meta();
    out.trace_text = obs::render_text(system.trace(), &meta);
  }
  return out;
}

std::string golden_path() { return std::string(RTHV_GOLDEN_DIR) + "/golden_trace.txt"; }

TEST(GoldenTraceTest, BaselineTraceMatchesGoldenFile) {
  const auto out = run_baseline(/*tracing=*/true);
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
      << "typed trace diverged from the committed golden stream";
}

TEST(GoldenTraceTest, GoldenContainsAllPathClasses) {
  const auto out = run_baseline(/*tracing=*/true);
  // The 48-IRQ monitored run exercises every major instrumentation point.
  for (const char* needle :
       {"start", "slot-switch", "top-enter", "top-exit", "mon-admit", "irq-push",
        "irq-pop", "bh-start", "bh-end", "interpose-enter", "interpose-return",
        "part=", "src="}) {
    EXPECT_NE(out.trace_text.find(needle), std::string::npos)
        << "trace lacks '" << needle << "'";
  }
}

TEST(ObserverEffectTest, TracingChangesNoSimulationOutput) {
  const auto off = run_baseline(/*tracing=*/false);
  const auto on = run_baseline(/*tracing=*/true);
  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.executed_events, on.executed_events);
  EXPECT_EQ(off.summary, on.summary) << "recorder summary must be byte-identical";
  EXPECT_EQ(off.metrics_json, on.metrics_json)
      << "metrics must not depend on tracing state";
}

TEST(ObserverEffectTest, RepeatedRunsAreBitIdentical) {
  const auto a = run_baseline(/*tracing=*/true);
  const auto b = run_baseline(/*tracing=*/true);
  EXPECT_EQ(a.trace_text, b.trace_text);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// Merged metrics (and traces) from a sweep are identical for any job count.
exp::RunResult run_sweep(std::size_t jobs) {
  constexpr std::size_t kRuns = 6;
  exp::BatchRunner runner(exp::BatchOptions{.jobs = jobs, .chunk = 1});
  auto runs = runner.map(kRuns, [](std::size_t i) {
    core::HypervisorSystem system(monitored_baseline());
    system.enable_tracing();
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 2014 + i);
    system.attach_trace(0, gen.generate(200));
    system.run(Duration::s(30));
    return exp::RunResult::capture(system);
  });
  exp::RunResult merged = std::move(runs[0]);
  for (std::size_t i = 1; i < runs.size(); ++i) merged.merge(std::move(runs[i]));
  return merged;
}

TEST(ObserverEffectTest, MetricsMergeIsJobCountIndependent) {
  const auto sequential = run_sweep(1);
  const auto parallel = run_sweep(exp::hardware_jobs());

  std::ostringstream js, jp;
  sequential.metrics.write_json(js);
  parallel.metrics.write_json(jp);
  EXPECT_EQ(js.str(), jp.str()) << "merged metrics must be bit-identical";

  EXPECT_EQ(obs::render_text(sequential.trace, &sequential.trace_meta),
            obs::render_text(parallel.trace, &parallel.trace_meta))
      << "merged trace stream must be bit-identical";
  EXPECT_EQ(sequential.trace_dropped, parallel.trace_dropped);
  EXPECT_GT(sequential.metrics.counter_value("irq.completed"), 0u);
}

}  // namespace
}  // namespace rthv
