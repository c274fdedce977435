// Merge semantics of RunResult and the stats-layer merge() helpers it rides
// on: folding per-run results in index order must equal one sequential run.
#include "exp/run_result.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/hypervisor_system.hpp"
#include "obs/metrics.hpp"
#include "stats/latency_recorder.hpp"
#include "stats/summary.hpp"
#include "workload/generators.hpp"

namespace rthv::exp {
namespace {

using sim::Duration;
using stats::HandlingClass;

TEST(SummaryMergeTest, AppendsSamplesInOrder) {
  stats::Summary a;
  a.add(Duration::us(10));
  a.add(Duration::us(30));
  stats::Summary b;
  b.add(Duration::us(20));

  a.merge(b);
  ASSERT_EQ(a.count(), 3u);
  EXPECT_EQ(a.samples()[0], Duration::us(10));
  EXPECT_EQ(a.samples()[1], Duration::us(30));
  EXPECT_EQ(a.samples()[2], Duration::us(20));
  EXPECT_EQ(a.median(), Duration::us(20));
  EXPECT_EQ(a.max(), Duration::us(30));
}

TEST(SummaryMergeTest, MergeAfterStatsQueryStaysCorrect) {
  stats::Summary a;
  a.add(Duration::us(50));
  EXPECT_EQ(a.median(), Duration::us(50));
  stats::Summary b;
  b.add(Duration::us(10));
  a.merge(b);
  EXPECT_EQ(a.min(), Duration::us(10));  // queries see samples merged later
  EXPECT_EQ(a.median(), Duration::us(10));
}

TEST(LatencyRecorderMergeTest, PerClassAndOverallCountsAdd) {
  stats::LatencyRecorder a;
  a.record(HandlingClass::kDirect, Duration::us(5));
  a.record(HandlingClass::kDelayed, Duration::us(500));
  stats::LatencyRecorder b;
  b.record(HandlingClass::kDirect, Duration::us(7));
  b.record(HandlingClass::kInterposed, Duration::us(50));

  a.merge(b);
  EXPECT_EQ(a.count(HandlingClass::kDirect), 2u);
  EXPECT_EQ(a.count(HandlingClass::kInterposed), 1u);
  EXPECT_EQ(a.count(HandlingClass::kDelayed), 1u);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.all().max(), Duration::us(500));
  // Per-class views filter the merged log in recorded order.
  const auto direct = a.of(HandlingClass::kDirect);
  ASSERT_EQ(direct.count(), 2u);
  EXPECT_EQ(direct.samples()[0], Duration::us(5));
  EXPECT_EQ(direct.samples()[1], Duration::us(7));
  EXPECT_EQ(a.of(HandlingClass::kDirectHw).count(), 0u);
}

/// Snapshot holding one latency histogram with the given binning.
obs::MetricsSnapshot histogram_snapshot(std::int64_t lo_us, std::int64_t width_us,
                                        std::uint32_t buckets) {
  obs::MetricsSnapshot snap;
  (void)snap.add_histogram("lat", lo_us * 1000, width_us * 1000, buckets);
  return snap;
}

void observe_us(obs::MetricsSnapshot& snap, std::int64_t us) {
  snap.histograms[0].observe(us * 1000);
}

TEST(HistogramMergeTest, BinCountsAdd) {
  auto a = histogram_snapshot(0, 10, 10);
  observe_us(a, 15);
  observe_us(a, 200);  // overflow
  auto b = histogram_snapshot(0, 10, 10);
  observe_us(b, 15);
  observe_us(b, 25);
  observe_us(b, -5);  // underflow

  a.merge(b);
  const auto& h = a.histograms[0];
  EXPECT_EQ(h.buckets[1], 2u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.count, 5u);
}

TEST(HistogramMergeTest, MismatchedBinningThrows) {
  auto a = histogram_snapshot(0, 10, 10);
  EXPECT_THROW(a.merge(histogram_snapshot(0, 20, 10)), std::invalid_argument);  // coarser
  EXPECT_THROW(a.merge(histogram_snapshot(10, 10, 10)), std::invalid_argument);  // shifted
}

RunResult run_once(std::uint64_t seed, std::size_t irqs) {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(1444);
  core::HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(Duration::us(1444), seed,
                                          Duration::us(1444));
  system.attach_trace(0, gen.generate(irqs));
  system.run(Duration::s(10));
  return RunResult::capture(system);
}

TEST(RunResultTest, CaptureSnapshotsARealRun) {
  const RunResult r = run_once(7, 100);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.recorder.total(), r.completed);
  EXPECT_GT(r.tdma_switches, 0u);
  // The latency metrics are derived from the recorder's sample log.
  EXPECT_EQ(r.metrics.counter_value("irq.completed"), r.completed);
  const auto* all = r.metrics.find_histogram("irq.latency.all");
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->count, r.completed);
  EXPECT_EQ(all->max_ns, r.recorder.all().max().count_ns());
  for (const auto cls : {HandlingClass::kDirect, HandlingClass::kInterposed,
                         HandlingClass::kDelayed, HandlingClass::kDirectHw}) {
    const std::string suffix(stats::to_string(cls));
    EXPECT_EQ(r.metrics.counter_value("irq.completed." + suffix), r.recorder.count(cls));
    EXPECT_EQ(r.metrics.find_histogram("irq.latency." + suffix)->count,
              r.recorder.count(cls));
  }
}

TEST(RunResultTest, MergeEqualsSequentialAggregation) {
  RunResult a = run_once(1, 80);
  RunResult b = run_once(2, 80);
  const std::uint64_t total = a.completed + b.completed;
  const std::uint64_t tdma = a.tdma_switches + b.tdma_switches;

  a.merge(std::move(b));
  EXPECT_EQ(a.completed, total);
  EXPECT_EQ(a.recorder.total(), total);
  EXPECT_EQ(a.tdma_switches, tdma);
  EXPECT_EQ(a.metrics.find_histogram("irq.latency.all")->count, total);
  EXPECT_EQ(a.metrics.counter_value("irq.completed"), total);
}

TEST(RunResultTest, WriteSummaryIsDeterministicForSameSeed) {
  const auto render = [](const RunResult& r) {
    std::ostringstream os;
    r.recorder.write_summary(os);
    return os.str();
  };
  EXPECT_EQ(render(run_once(11, 60)), render(run_once(11, 60)));
  EXPECT_NE(render(run_once(11, 60)), render(run_once(12, 60)));
}

}  // namespace
}  // namespace rthv::exp
