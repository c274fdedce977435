// Cross-validation of the worst-case analysis (Section 4/5.1) against the
// simulated hypervisor: no observed latency may exceed the analytic bound
// for its scenario, and the analytic structure (interposed independent of
// the TDMA cycle, delayed bound growing with it) must show up in simulation.
#include <gtest/gtest.h>

#include "core/analysis_facade.hpp"
#include "core/hypervisor_system.hpp"
#include "workload/generators.hpp"

namespace rthv::core {
namespace {

using sim::Duration;

TEST(AnalysisVsSimTest, DelayedBoundHoldsForUnmonitoredRun) {
  auto cfg = SystemConfig::paper_baseline();
  const Duration d_min = Duration::us(2000);
  const auto bound =
      AnalysisFacade(cfg).compare(0, analysis::make_sporadic(d_min), false).tdma_delayed;
  ASSERT_TRUE(bound.has_value());

  HypervisorSystem system(cfg);
  // Conforming sporadic arrivals (floor = d_min keeps the event model valid).
  workload::ExponentialTraceGenerator gen(d_min, 5, d_min);
  system.attach_trace(0, gen.generate(1500));
  system.run(Duration::s(120));
  ASSERT_GT(system.recorder().total(), 0u);
  // Measured latency starts at the top handler, the analysis bounds from
  // arrival; the bound applies a fortiori. Allow the TDMA tick overhead
  // (not part of the paper's model) on top.
  EXPECT_LE(system.recorder().all().max(),
            bound->worst_case + Duration::us(10));
}

TEST(AnalysisVsSimTest, InterposedBoundHoldsForConformingRun) {
  auto cfg = SystemConfig::paper_baseline();
  const Duration d_min = Duration::us(1444);
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = d_min;

  const auto [delayed_bound, interposed_bound] =
      AnalysisFacade(cfg).compare(0, analysis::make_sporadic(d_min), true);
  ASSERT_TRUE(interposed_bound && delayed_bound);

  HypervisorSystem system(cfg);
  system.keep_completions(true);
  workload::ExponentialTraceGenerator gen(d_min, 6, d_min);
  system.attach_trace(0, gen.generate(1500));
  system.run(Duration::s(120));

  Duration max_interposed = Duration::zero();
  Duration max_any = Duration::zero();
  for (const auto& rec : system.completions()) {
    max_any = std::max(max_any, rec.latency());
    if (rec.handling == stats::HandlingClass::kInterposed) {
      max_interposed = std::max(max_interposed, rec.latency());
    }
  }
  // Interposed latencies stay within Eq. 16's bound (+ tick overhead).
  EXPECT_LE(max_interposed, interposed_bound->worst_case + Duration::us(10));
  // And even the straddling corner cases stay within the delayed bound.
  EXPECT_LE(max_any, delayed_bound->worst_case + Duration::us(10));
  // The structural claim: the interposed bound is TDMA-independent and far
  // smaller.
  EXPECT_LT(interposed_bound->worst_case * 20, delayed_bound->worst_case);
}

TEST(AnalysisVsSimTest, AnalysisIsConservativeNotWildlyLoose) {
  // The observed worst case should approach the bound (within ~3x) for the
  // delayed scenario, evidence that the analysis models the right effects.
  auto cfg = SystemConfig::paper_baseline();
  const Duration d_min = Duration::us(2000);
  const auto bound =
      AnalysisFacade(cfg).compare(0, analysis::make_sporadic(d_min), false).tdma_delayed;
  ASSERT_TRUE(bound.has_value());

  HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(d_min, 7, d_min);
  system.attach_trace(0, gen.generate(2000));
  system.run(Duration::s(120));
  EXPECT_GE(system.recorder().all().max() * 3, bound->worst_case);
}

TEST(AnalysisVsSimTest, TdmaCycleSweepMatchesAnalyticTrend) {
  // Doubling the TDMA cycle roughly doubles the delayed worst case but
  // leaves the interposed bound unchanged (paper Section 5.1, observation 2).
  Duration delayed_small, delayed_large;
  const Duration d_min = Duration::us(3000);
  for (const int scale : {1, 2}) {
    auto cfg = SystemConfig::paper_baseline();
    for (auto& p : cfg.partitions) {
      p.slot_length = p.slot_length * scale;
    }
    const auto [bound, interposed] =
        AnalysisFacade(cfg).compare(0, analysis::make_sporadic(d_min), false);
    ASSERT_TRUE(bound.has_value());
    (scale == 1 ? delayed_small : delayed_large) = bound->worst_case;
    ASSERT_TRUE(interposed.has_value());
    EXPECT_EQ(interposed->worst_case, Duration::ns(150'025)) << "scale " << scale;
  }
  EXPECT_GT(delayed_large, delayed_small + Duration::us(7000));
}

TEST(AnalysisVsSimTest, DelayedBoundFollowsTheRunSchedule) {
  // With [slot] entries the hypervisor ignores PartitionSpec::slot_length:
  // the subscriber declares 12000us but runs one 2000us slot per 14000us
  // cycle, so its delayed IRQs wait up to ~12ms. The Eq. 11 bound must
  // take T_i from that schedule, not from the declared slot length.
  auto cfg = SystemConfig::paper_baseline();
  cfg.partitions[1].slot_length = Duration::us(12000);
  cfg.schedule = {{0, Duration::us(6000)}, {1, Duration::us(2000)}, {2, Duration::us(6000)}};
  const Duration d_min = Duration::us(3000);
  const auto bound =
      AnalysisFacade(cfg).compare(0, analysis::make_sporadic(d_min), false).tdma_delayed;
  ASSERT_TRUE(bound.has_value());

  HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(d_min, 8, d_min);
  system.attach_trace(0, gen.generate(3000));
  system.run(Duration::s(120));
  ASSERT_EQ(system.recorder().total(), 3000u);
  EXPECT_GT(system.recorder().all().max(), Duration::us(11000));
  EXPECT_GE(bound->worst_case, system.recorder().all().max());
}

}  // namespace
}  // namespace rthv::core
