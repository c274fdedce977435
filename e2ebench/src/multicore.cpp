// multicore_4core: the fig_multicore_interference scenario on 4 cores, one
// thread. Core 0 runs the app partition plus the hard-RT subscriber of the
// monitored, interposing paper-baseline source (bh_accesses = 2000); cores
// 1-3 run hogs on overlapping cache colours under a MemGuard budget of 400
// accesses per 100 us. One long exponential trace per run.
//
// The only workload that runs the (time, core, seq) merge loop and the
// interconnect accounting.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/multicore_system.hpp"
#include "core/system_config.hpp"
#include "exp/run_result.hpp"
#include "exp/seed.hpp"
#include "harness.hpp"
#include "workload/generators.hpp"

namespace e2e {
namespace {

namespace core = rthv::core;
using rthv::sim::Duration;

constexpr std::uint32_t kCores = 4;
constexpr std::size_t kIrqs = 50'000;
constexpr std::uint64_t kHogBudget = 400;
const Duration kHorizon = Duration::s(100'000);

core::SystemConfig scenario() {
  core::SystemConfig cfg;
  cfg.mode = rthv::hv::TopHandlerMode::kInterposing;
  cfg.interconnect.num_cores = kCores;
  cfg.interconnect.num_colors = 16;
  cfg.interconnect.conflict_access_ns = 40;
  cfg.interconnect.half_load_accesses = 2000;
  cfg.interconnect.budgets.assign(kCores, rthv::hw::CoreBandwidthBudget{});
  for (std::uint32_t c = 1; c < kCores; ++c) {
    cfg.interconnect.budgets[c] = {kHogBudget, Duration::us(100)};
  }
  for (const char* name : {"app", "hard-rt"}) {
    core::PartitionSpec p;
    p.name = name;
    p.slot_length = Duration::us(6000);
    p.core = 0;
    p.color_mask = 0x00FFu;
    cfg.partitions.push_back(p);
  }
  for (std::uint32_t c = 1; c < kCores; ++c) {
    core::PartitionSpec hog;
    hog.name = "hog" + std::to_string(c);
    hog.slot_length = Duration::us(6000);
    hog.core = c;
    hog.color_mask = 0x00FFu;
    hog.mem_accesses_per_us = 10;
    cfg.partitions.push_back(hog);
  }
  core::IrqSourceSpec src;
  src.name = "rt-irq";
  src.subscriber = 1;
  src.core = 0;
  src.c_top = Duration::us(5);
  src.c_bottom = Duration::us(40);
  src.monitor = core::MonitorKind::kDeltaMin;
  src.d_min = Duration::us(1444);
  src.bh_accesses = 2000;
  cfg.sources.push_back(src);
  return cfg;
}

std::unique_ptr<core::MulticoreSystem> build(const core::SystemConfig& cfg,
                                             const rthv::workload::Trace& trace) {
  const Scoped span("core.construct_multicore");
  auto mc = std::make_unique<core::MulticoreSystem>(cfg);
  mc->attach_trace(0, trace);
  return mc;
}

Conservation multicore_conservation(const core::MulticoreSystem& mc, std::uint64_t raised) {
  Conservation c;
  c.raised = raised;
  for (std::uint32_t k = 0; k < mc.num_cores(); ++k) {
    const auto part = conservation(mc.core(k), 0);
    c.completed += part.completed;
    c.lost += part.lost;
    c.dropped += part.dropped;
  }
  return c;
}

}  // namespace

void run_multicore(const Options& opt, Report& report) {
  core::SystemConfig cfg;
  rthv::workload::Trace trace;
  std::unique_ptr<core::MulticoreSystem> mc;
  const auto release = [&] {
    mc.reset();
    trace = {};
  };
  SetupClock setup(9, release, [&] {
    cfg = scenario();
    {
      const Scoped span("workload.generate");
      trace = rthv::workload::ExponentialTraceGenerator(
                  Duration::us(1444), rthv::exp::derive_seed(opt.seed, 0), Duration::us(200))
                  .generate(kIrqs);
    }
    mc = build(cfg, trace);
  });

  std::vector<Pass> passes;
  std::vector<double> ns_per_event;
  std::string first_digest;
  rthv::stats::LatencyRecorder latency;
  double stall_us_per_irq = 0;
  const double budget = opt.trace ? opt.seconds * 0.8 : opt.seconds;
  const auto start = Clock::now();
  for (std::uint64_t rep = 0; rep == 0 || seconds_since(start) < budget; ++rep) {
    setup.between_passes();
    next_cpus(1);
    if (rep > 0) mc = build(cfg, trace);
    const Scoped span("core.run_multicore", rep);
    const auto t0 = Clock::now();
    const auto done = mc->run(kHorizon);
    const double s = seconds_since(t0);
    passes.push_back(Pass{s, done, 1, {s * 1e6}});
    std::uint64_t events = 0;
    for (std::uint32_t k = 0; k < kCores; ++k) {
      events += mc->core(k).simulator().executed_events();
    }
    ns_per_event.push_back(s * 1e9 / static_cast<double>(events));

    // Checks, outside the timed region.
    ++report.attempted;
    check_conservation(opt, report, multicore_conservation(*mc, trace.size()),
                       "multicore run", rep);
    Digest digest;
    for (std::uint32_t k = 0; k < kCores; ++k) {
      digest.add_run(rthv::exp::RunResult::capture(mc->core(k)));
    }
    const auto& ic = mc->interconnect().counters();
    for (const auto v : {ic.stall_ns_total, ic.bursts_charged, ic.accesses_registered,
                         ic.accesses_throttled, ic.routes}) {
      digest.add(v);
    }
    if (rep == 0) {
      first_digest = digest.hex();
      latency = mc->merged_recorder();
      stall_us_per_irq = static_cast<double>(ic.stall_ns_total) / 1e3 / static_cast<double>(done);
    } else if (digest.hex() != first_digest) {
      report.fail(1, "multicore run " + std::to_string(rep) + " digest " + digest.hex() +
                         " differs from run 0 " + first_digest);
    }
  }
  report.digest = first_digest;

  report_end_to_end(report, setup.median_s(), passes, passes, latency);
  std::cerr << "multicore_4core: " << passes.size() << " runs of " << kIrqs << " IRQs, "
            << latency.total() << " latency samples/run\n";
  if (!opt.trace) return;

  report.metric("hw.contention_stall_us_per_irq", stall_us_per_irq, "us");
  report.metric("core.multicore_ns_per_event", median(ns_per_event), "ns");
}

}  // namespace e2e
