// Merge semantics of RunResult and the stats-layer merge() helpers it rides
// on: folding per-run results in index order must equal one sequential run.
#include "exp/run_result.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

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

// merge() checks every shared histogram's binning before it changes
// anything: a throwing merge leaves counters, gauges and histograms as they
// were.
TEST(HistogramMergeTest, MismatchThrowsAndLeavesTargetUnchanged) {
  auto target = histogram_snapshot(0, 10, 10);
  observe_us(target, 15);
  target.add_counter("runs", 3);
  target.set_gauge("now", 7);
  target.add_histogram("tail", 0, 100, 4).observe(250'000);

  auto other = histogram_snapshot(0, 10, 10);  // matches: would be added
  observe_us(other, 25);
  other.add_counter("runs", 1);
  other.add_counter("new.counter", 5);
  other.set_gauge("now", 9);
  other.add_histogram("new.histogram", 0, 10, 2).observe(1);
  other.add_histogram("tail", 0, 200, 4).observe(250'000);  // binning differs

  const auto json = [](const obs::MetricsSnapshot& snap) {
    std::ostringstream os;
    snap.write_json(os);
    return os.str();
  };
  const std::string before = json(target);
  EXPECT_THROW(target.merge(other), std::invalid_argument);
  EXPECT_EQ(json(target), before);
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

// A campaign_10irq-sized run fills at most 10 of the 85 latency buckets;
// each irq.latency.* histogram stores only the window between its lowest
// and highest occupied bucket, and a class with no sample stores nothing.
TEST(RunResultTest, TenIrqCaptureStoresOnlyOccupiedWindow) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const RunResult r = run_once(seed, 10);
    const auto& samples = r.recorder.all().samples();
    const auto& classes = r.recorder.classes();
    const auto check = [&](std::string_view name, auto in_class) {
      const auto* h = r.metrics.find_histogram(name);
      ASSERT_NE(h, nullptr) << name;
      std::size_t lo = h->buckets.size();
      std::size_t hi = 0;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        const std::size_t bin = h->bucket_of(samples[i].count_ns());
        if (!in_class(classes[i]) || bin == h->buckets.size()) continue;
        lo = std::min(lo, bin);
        hi = std::max(hi, bin);
      }
      if (lo == h->buckets.size()) {
        EXPECT_EQ(h->buckets.stored(), 0u) << name << ", seed " << seed;
      } else {
        EXPECT_LE(h->buckets.stored(), hi - lo + 1) << name << ", seed " << seed;
      }
    };
    check("irq.latency.all", [](HandlingClass) { return true; });
    for (std::size_t c = 0; c < static_cast<std::size_t>(HandlingClass::kCount_); ++c) {
      const auto cls = static_cast<HandlingClass>(c);
      check("irq.latency." + std::string(stats::to_string(cls)),
            [cls](HandlingClass other) { return other == cls; });
    }
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
