// campaign_10irq: the configs/batch_fig6b_1k.json campaign (paper baseline,
// delta-min monitored, lambda = d_min = 444 us, 10 IRQs per run) scaled to
// 10^5 runs on 1 worker. Run i attaches the trace of seed base + i, where
// base = --seed * 10^6. One worker, because on a shared host a second worker
// thread measured the scheduler: in two sets of ten seeds on a shared
// 4-vCPU host, 2-worker runs_per_s spread 0.14 and 0.25 (quartile distance
// over median).
//
// Per-run set-up, recycle, capture and merge dominate and per-IRQ dispatch
// is small, so this is where campaign-engine and construction changes show.
// The workload is the campaign spec; run_chunk() is the one place that
// names the engine that executes it.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "core/system_config.hpp"
#include "exp/batch_runner.hpp"
#include "exp/run_result.hpp"
#include "exp/system_pool.hpp"
#include "harness.hpp"
#include "workload/generators.hpp"

namespace e2e {
namespace {

namespace core = rthv::core;
using rthv::exp::RunResult;
using rthv::sim::Duration;

constexpr std::size_t kRuns = 100'000;
constexpr std::size_t kChunkRuns = 10'000;  // runs per engine call; bounds memory
constexpr std::size_t kIrqsPerRun = 10;
constexpr std::size_t kWorkers = 1;
const Duration kLambda = Duration::us(444);
const Duration kDmin = Duration::us(444);
const Duration kHorizon = Duration::ms(1'000'000);

core::SystemConfig campaign_config() {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = rthv::hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = kDmin;
  return cfg;
}

struct RunSlot {
  std::int64_t callback_ns = 0;
  std::int64_t capture_ns = 0;
  std::int64_t metrics_snapshot_ns = -1;  // traced runs sample every 16th run
  Conservation cons;
};

/// Runs campaign indices [first, first + count) on the campaign engine and
/// returns their results in index order.
std::vector<RunResult> run_chunk(rthv::exp::SystemPool& pool, std::size_t first,
                                 std::size_t count,
                                 const std::vector<rthv::workload::Trace>& traces,
                                 std::vector<RunSlot>& slots, bool traced) {
  rthv::exp::BatchRunner runner(rthv::exp::BatchOptions{.jobs = kWorkers, .chunk = 16});
  return runner.map(pool, count, [&](std::size_t i, core::HypervisorSystem& system) {
    const std::size_t g = first + i;
    const Scoped span("core.run", g);
    const auto t0 = Clock::now();
    system.attach_trace(0, traces[g]);
    system.run(kHorizon);
    const auto t1 = Clock::now();
    RunResult out;
    {
      const Scoped capture_span("exp.capture", g);
      out = RunResult::capture(system);
    }
    const auto t2 = Clock::now();
    auto& slot = slots[g];
    slot.callback_ns = ns_between(t0, t2);
    slot.capture_ns = ns_between(t1, t2);
    if (traced && g % 16 == 0) {
      const Scoped snap_span("core.metrics_snapshot", g);
      const auto t3 = Clock::now();
      const auto snap = system.metrics_snapshot();
      slot.metrics_snapshot_ns = ns_between(t3, Clock::now());
    }
    slot.cons = conservation(system, traces[g].size());
    return out;
  });
}

}  // namespace

void run_campaign(const Options& opt, Report& report) {
  const auto cfg = campaign_config();
  std::vector<rthv::workload::Trace> traces;
  std::unique_ptr<rthv::exp::SystemPool> pool;
  const auto release = [&] {
    pool.reset();
    traces = {};
  };
  SetupClock setup(5, release, [&] {
    traces.reserve(kRuns);
    const std::uint64_t base = opt.seed * 1'000'000;
    {
      const Scoped span("workload.generate");
      for (std::size_t i = 0; i < kRuns; ++i) {
        traces.push_back(
            rthv::workload::ExponentialTraceGenerator(kLambda, base + i).generate(kIrqsPerRun));
      }
    }
    const Scoped span("exp.pool_warmup");
    pool = std::make_unique<rthv::exp::SystemPool>(cfg);
    // Warm the worker's pooled system before the timed region.
    auto lease = pool->acquire();
  });

  std::vector<RunSlot> slots(kRuns);
  std::vector<Pass> passes;
  std::vector<double> engine_overhead;
  std::vector<double> capture_us, snapshot_us, merge_us_per_run;
  std::string first_digest;
  rthv::stats::LatencyRecorder latency;
  AllocCount merge_allocs;  // first campaign, main thread
  const double budget = opt.trace ? opt.seconds * 0.8 : opt.seconds;
  const auto start = Clock::now();
  for (std::uint64_t rep = 0; rep == 0 || seconds_since(start) < budget; ++rep) {
    setup.between_passes();
    const Scoped campaign_span("bench.campaign", rep);
    RunResult merged;
    double map_wall = 0;
    double callbacks = 0;
    // Each engine call and its merge is one timed pass.
    for (std::size_t first = 0; first < kRuns; first += kChunkRuns) {
      const std::size_t count = std::min(kChunkRuns, kRuns - first);
      const std::uint64_t completed_before = merged.completed;
      next_cpus(kWorkers);
      const auto t0 = Clock::now();
      auto results = run_chunk(*pool, first, count, traces, slots, opt.trace);
      const auto t1 = Clock::now();
      {
        const Scoped span("exp.merge", rep);
        const AllocScope allocs;
        for (auto& r : results) merged.merge(std::move(r));
        if (rep == 0) {
          merge_allocs.allocs += allocs.delta().allocs;
          merge_allocs.bytes += allocs.delta().bytes;
        }
      }
      const auto t2 = Clock::now();
      map_wall += std::chrono::duration<double>(t1 - t0).count();
      merge_us_per_run.push_back(static_cast<double>(ns_between(t1, t2)) / 1e3 /
                                 static_cast<double>(count));
      Pass timed{std::chrono::duration<double>(t2 - t0).count(),
                 merged.completed - completed_before, count, {}};
      for (std::size_t g = first; g < first + count; ++g) {
        timed.run_us.push_back(static_cast<double>(slots[g].callback_ns) / 1e3);
      }
      passes.push_back(std::move(timed));
    }
    for (const auto& slot : slots) {
      callbacks += static_cast<double>(slot.callback_ns) / 1e9;
      if (opt.trace) {
        capture_us.push_back(static_cast<double>(slot.capture_ns) / 1e3);
        if (slot.metrics_snapshot_ns >= 0) {
          snapshot_us.push_back(static_cast<double>(slot.metrics_snapshot_ns) / 1e3);
        }
      }
    }
    engine_overhead.push_back(1.0 - callbacks / (map_wall * static_cast<double>(kWorkers)));

    // Checks, outside the timed region.
    report.attempted += kRuns;
    for (std::size_t g = 0; g < kRuns; ++g) {
      check_conservation(opt, report, slots[g].cons, "campaign run", g);
    }
    Digest digest;
    digest.add_run(merged);
    if (rep == 0) {
      first_digest = digest.hex();
      latency = merged.recorder;
    } else if (digest.hex() != first_digest) {
      report.fail(kRuns, "campaign " + std::to_string(rep) + " digest " + digest.hex() +
                             " differs from campaign 0 " + first_digest);
    }
  }
  report.digest = first_digest;

  report_end_to_end(report, setup.median_s(), passes, passes, latency);
  std::cerr << "campaign_10irq: " << passes.size() * kChunkRuns / kRuns << " campaigns of "
            << kRuns << " runs, " << latency.total() << " latency samples/campaign\n";
  if (!opt.trace) return;

  // --- per-layer attribution ------------------------------------------------
  report.metric("exp.capture_us", median(capture_us), "us");
  report.metric("core.metrics_snapshot_us", median(snapshot_us), "us");
  report.metric("exp.merge_us", median(merge_us_per_run), "us");
  report.metric("exp.merge_allocs_per_run",
                static_cast<double>(merge_allocs.allocs) / static_cast<double>(kRuns), "count");
  report.metric("exp.merge_kib_per_run",
                static_cast<double>(merge_allocs.bytes) / 1024.0 / static_cast<double>(kRuns),
                "KiB");
  report.metric("exp.engine_overhead_frac", median(engine_overhead), "frac");
  const auto run_us = fast_run_us(passes);
  report.metric("exp.run_us_p99", quantile(run_us, 0.99), "us");
  std::cerr << "campaign_10irq: exp.run_us_p99 over " << run_us.size() << " runs\n";

  // Single-thread probe through the pool's public lease: recycle (restore
  // of the pristine snapshot) time, and exact allocations per call boundary.
  rthv::exp::SystemPool probe_pool(cfg);
  auto lease = probe_pool.acquire();
  std::vector<double> restore_us;
  AllocCount restore, capture, whole;
  constexpr std::size_t kProbeRuns = 2000;
  const auto add = [](AllocCount& sum, const AllocScope& scope) {
    sum.allocs += scope.delta().allocs;
    sum.bytes += scope.delta().bytes;
  };
  for (std::size_t i = 0; i <= kProbeRuns; ++i) {
    const bool counted = i > 0;  // the first lease use skips the restore
    const AllocScope run_scope;
    const auto t0 = Clock::now();
    core::HypervisorSystem* system = nullptr;
    {
      const Scoped span("exp.restore", i);
      const AllocScope scope;
      system = &lease.begin_run();
      if (counted) add(restore, scope);
    }
    const auto t1 = Clock::now();
    system->attach_trace(0, traces[i]);
    system->run(kHorizon);
    {
      const AllocScope scope;
      const auto out = RunResult::capture(*system);
      if (counted) add(capture, scope);
    }
    if (counted) {
      restore_us.push_back(static_cast<double>(ns_between(t0, t1)) / 1e3);
      add(whole, run_scope);
    }
  }
  const auto per_run = [](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(kProbeRuns);
  };
  report.metric("exp.restore_us", median(restore_us), "us");
  report.metric("exp.restore_allocs", per_run(restore.allocs), "count");
  report.metric("exp.restore_kib", per_run(restore.bytes) / 1024.0, "KiB");
  report.metric("exp.capture_allocs", per_run(capture.allocs), "count");
  report.metric("exp.capture_kib", per_run(capture.bytes) / 1024.0, "KiB");
  report.metric("exp.allocs_per_run", per_run(whole.allocs), "count");
}

}  // namespace e2e
