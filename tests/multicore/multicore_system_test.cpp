// System tests of the multi-core platform: deterministic (time, core, seq)
// merging (the run loop's stepping window against a one-event-at-a-time
// merge), configuration validation, cross-core IRQ routing,
// contention-aware admission against the interference oracle, cache
// coloring, core-relabel invariance, --jobs identity, and full-state
// checkpoint/restore.
#include "core/multicore_system.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_loader.hpp"
#include "exp/batch_runner.hpp"
#include "fault/fault_engine.hpp"
#include "fault/oracle.hpp"
#include "obs/exporters.hpp"
#include "workload/generators.hpp"

namespace rthv::core {
namespace {

using sim::Duration;
using sim::TimePoint;

/// Contended mixed-criticality setup: core 0 hosts an application partition
/// plus the hard-RT subscriber of a monitored, interposing IRQ source whose
/// bottom handler issues an interconnect burst; every other core hosts one
/// best-effort bandwidth hog whose color mask overlaps the subscriber's.
SystemConfig contended_config(std::uint32_t cores) {
  SystemConfig cfg;
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.interconnect.num_cores = cores;
  cfg.interconnect.num_colors = 16;
  cfg.interconnect.conflict_access_ns = 4;
  cfg.interconnect.half_load_accesses = 2000;

  PartitionSpec app;
  app.name = "app";
  app.slot_length = Duration::us(6000);
  app.core = 0;
  app.color_mask = 0x00FFu;
  cfg.partitions.push_back(app);

  PartitionSpec rt;
  rt.name = "rt";
  rt.slot_length = Duration::us(6000);
  rt.core = 0;
  rt.color_mask = 0x00FFu;
  cfg.partitions.push_back(rt);

  for (std::uint32_t c = 1; c < cores; ++c) {
    PartitionSpec hog;
    hog.name = "hog" + std::to_string(c);
    hog.slot_length = Duration::us(6000);
    hog.core = c;
    hog.color_mask = 0x00FFu;  // overlaps the RT partition: full pressure
    hog.mem_accesses_per_us = 2000 + 500 * c;  // asymmetric, to break symmetry
    cfg.partitions.push_back(hog);
  }

  IrqSourceSpec src;
  src.name = "rt-irq";
  src.subscriber = 1;  // the rt partition
  src.core = 0;
  src.c_top = Duration::us(5);
  src.c_bottom = Duration::us(40);
  src.monitor = MonitorKind::kDeltaMin;
  src.d_min = Duration::us(1444);
  src.bh_accesses = 2000;
  cfg.sources.push_back(src);
  return cfg;
}

workload::Trace rt_trace(std::size_t count, std::uint64_t seed = 2014) {
  workload::ExponentialTraceGenerator gen(Duration::us(1444), seed,
                                          Duration::us(200));
  return gen.generate(count);
}

/// Serialized fingerprint of a finished run: merged latency summary plus the
/// full merged metrics dump (per-core and interconnect counters included).
std::string fingerprint(const MulticoreSystem& mc) {
  std::ostringstream os;
  mc.merged_recorder().write_summary(os);
  mc.metrics_snapshot().write_text(os);
  return os.str();
}

TEST(MulticoreSystemTest, ValidatesCoreAssignments) {
  auto cfg = contended_config(2);
  cfg.partitions[1].core = 2;  // out of range
  EXPECT_THROW(MulticoreSystem{cfg}, std::invalid_argument);

  cfg = contended_config(2);
  cfg.sources[0].core = 7;
  EXPECT_THROW(MulticoreSystem{cfg}, std::invalid_argument);

  cfg = contended_config(2);
  cfg.interconnect.num_cores = 3;  // core 2 hosts nothing
  EXPECT_THROW(MulticoreSystem{cfg}, std::invalid_argument);
}

TEST(MulticoreSystemTest, RejectsColorMaskWithNoConfiguredColor) {
  // 0xFF00 selects none of 8 colors; it used to widen silently to all of
  // them, making a partition colored away from everything contend on all.
  auto cfg = contended_config(2);
  cfg.interconnect.num_colors = 8;
  cfg.partitions[2].color_mask = 0xFF00u;
  EXPECT_THROW(MulticoreSystem{cfg}, std::invalid_argument);
  // Uncolored (0), all-ones and partly configured masks stay legal.
  for (const std::uint32_t mask : {0u, 0xFFFF'FFFFu, 0x1F0u}) {
    cfg.partitions[2].color_mask = mask;
    EXPECT_NO_THROW(MulticoreSystem{cfg}) << mask;
  }
}

TEST(MulticoreSystemTest, RejectsBudgetsForCoresThatDoNotExist) {
  auto cfg = contended_config(2);
  cfg.interconnect.budgets.assign(3, hw::CoreBandwidthBudget{});
  EXPECT_THROW(MulticoreSystem{cfg}, std::invalid_argument);
  cfg.interconnect.budgets.resize(2);
  EXPECT_NO_THROW(MulticoreSystem{cfg});
}

TEST(MulticoreSystemTest, SplitsPartitionsAndSourcesPerCore) {
  const auto cfg = contended_config(4);
  MulticoreSystem mc(cfg);
  ASSERT_EQ(mc.num_cores(), 4u);
  EXPECT_EQ(mc.core(0).config().partitions.size(), 2u);
  EXPECT_EQ(mc.core(1).config().partitions.size(), 1u);
  EXPECT_EQ(mc.core(0).config().sources.size(), 1u);
  EXPECT_EQ(mc.core(1).config().sources.size(), 0u);
  EXPECT_EQ(mc.partition_core(1), 0u);
  EXPECT_EQ(mc.local_partition_index(2), 0u);  // hog1 is core 1's partition 0
  EXPECT_EQ(mc.source_core(0), 0u);
  // Local subscriber index was remapped with the partition split.
  EXPECT_EQ(mc.core(0).config().sources[0].subscriber, 1u);
}

TEST(MulticoreSystemTest, CrossCoreRoutingDeliversEveryActivation) {
  auto cfg = contended_config(2);
  cfg.sources[0].core = 1;  // device wired to core 1, subscriber on core 0
  MulticoreSystem mc(cfg);
  const auto trace = rt_trace(200);
  mc.attach_trace(0, trace);
  const auto done = mc.run(Duration::s(60));

  EXPECT_EQ(mc.interconnect().counters().routes, 200u);
  std::uint64_t lost = 0;
  for (std::uint32_t c = 0; c < mc.num_cores(); ++c) {
    lost += mc.core(c).platform().intc().lost_raises();
  }
  EXPECT_EQ(done + lost, 200u);
  EXPECT_GT(done, 190u);  // floor(200us) keeps latch losses rare
  // Routed activations land only on the subscriber core.
  EXPECT_EQ(mc.core(0).completed_bottom_handlers(), done);
  EXPECT_EQ(mc.core(1).completed_bottom_handlers(), 0u);
}

TEST(MulticoreSystemTest, ContendedAdmissionsChargeAndSatisfyFoldedOracle) {
  MulticoreSystem mc(contended_config(4));
  mc.enable_tracing();
  mc.attach_trace(0, rt_trace(300));
  mc.run(Duration::s(60));

  const fault::InterferenceOracle oracle(
      fault::InterferenceOracle::params_from(mc.core(0)));
  const auto report = oracle.verify(mc.core(0).trace());
  EXPECT_GT(report.interpositions, 0u);
  EXPECT_GT(report.contention_charges, 0u)
      << "hogs must generate pressure that charges admitted bursts";
  EXPECT_GT(report.total_charge_ns, 0);
  EXPECT_TRUE(report.ok()) << [&] {
    std::ostringstream os;
    report.write(os);
    return os.str();
  }();
}

TEST(MulticoreSystemTest, UnfoldedOracleRejectsContendedRun) {
  // Falsifiability of the fold: replaying the same contended trace against
  // the raw single-core bound must fail -- the contention allowance carries
  // real weight, it is not slack.
  MulticoreSystem mc(contended_config(4));
  mc.enable_tracing();
  mc.attach_trace(0, rt_trace(300));
  mc.run(Duration::s(60));

  fault::InterferenceOracle oracle(
      fault::InterferenceOracle::params_from(mc.core(0)));
  oracle.set_fold_contention(false);
  const auto report = oracle.verify(mc.core(0).trace());
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.cost_violations.empty())
      << "contention-inflated spans must exceed the uncorrected C'_BH";
}

TEST(MulticoreSystemTest, WeakenedMonitorFailsFoldedOracle) {
  // Falsifiability of the whole check with contention folded in: a monitor
  // enforcing d_min/4 admits streams the configured d_min forbids, and the
  // oracle must say so even on the normalized clock.
  auto cfg = contended_config(4);
  MulticoreSystem mc(cfg);
  fault::weaken_monitor_for_test(mc.core(0), 0, 4);
  mc.enable_tracing();
  workload::ExponentialTraceGenerator gen(Duration::us(700), 99,
                                          Duration::us(400));
  mc.attach_trace(0, gen.generate(300));
  mc.run(Duration::s(60));

  const fault::InterferenceOracle oracle(
      fault::InterferenceOracle::params_from(mc.core(0)));
  const auto report = oracle.verify(mc.core(0).trace());
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.violations.empty())
      << "sub-d_min admissions must violate the folded count check";
}

TEST(MulticoreSystemTest, DisjointColoringRemovesContentionCharges) {
  auto cfg = contended_config(4);
  cfg.partitions[0].color_mask = 0x000Fu;
  cfg.partitions[1].color_mask = 0x000Fu;  // RT pair colored away from hogs
  for (std::size_t p = 2; p < cfg.partitions.size(); ++p) {
    cfg.partitions[p].color_mask = 0xFFF0u;
  }
  MulticoreSystem mc(cfg);
  mc.enable_tracing();
  mc.attach_trace(0, rt_trace(300));
  mc.run(Duration::s(60));

  const fault::InterferenceOracle oracle(
      fault::InterferenceOracle::params_from(mc.core(0)));
  const auto report = oracle.verify(mc.core(0).trace());
  EXPECT_GT(report.interpositions, 0u);
  EXPECT_EQ(report.contention_charges, 0u)
      << "disjoint color masks must isolate the RT burst from hog pressure";
  EXPECT_TRUE(report.ok());
}

TEST(MulticoreSystemTest, RunIsIdenticalForAnyJobsCount) {
  // The merged (time, core, seq) order is a pure function of the config and
  // traces; sharding a sweep over worker threads must not change a bit.
  const auto run_one = [](std::size_t i) {
    MulticoreSystem mc(contended_config(4));
    mc.attach_trace(0, rt_trace(120, 1000 + i));
    mc.run(Duration::s(30));
    return fingerprint(mc);
  };
  exp::BatchRunner serial(exp::BatchOptions{.jobs = 1});
  exp::BatchRunner parallel(exp::BatchOptions{.jobs = 4, .chunk = 1});
  const auto a = serial.map(4, run_one);
  const auto b = parallel.map(4, run_one);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "run " << i << " differs between --jobs 1 and 4";
  }
}

/// Everything observable about a finished run, per core and shared: the
/// rendered trace ring, the metrics, the clock and the event count of each
/// core, and the interconnect's counters.
std::string observe(const MulticoreSystem& mc) {
  std::ostringstream os;
  for (std::uint32_t c = 0; c < mc.num_cores(); ++c) {
    const HypervisorSystem& core = mc.core(c);
    os << "core " << c << " now " << core.simulator().now().count_ns() << " events "
       << core.simulator().executed_events() << "\n";
    obs::render_text(os, core.trace());
    core.metrics_snapshot().write_text(os);
  }
  const auto& k = mc.interconnect().counters();
  os << "interconnect " << k.stall_ns_total << " " << k.bursts_charged << " "
     << k.accesses_registered << " " << k.accesses_throttled << " " << k.routes << " "
     << k.epochs_rolled << "\n";
  return os.str();
}

/// Schedules, on every core, probe events every `step` up to `until` that
/// log the core, the instant and the interconnect's running counters: the
/// merged order of cross-core work made visible to the comparison.
void add_probes(MulticoreSystem& mc, std::vector<std::uint64_t>& log, Duration step,
                TimePoint until) {
  for (std::uint32_t c = 0; c < mc.num_cores(); ++c) {
    sim::Simulator& sim = mc.core(c).simulator();
    for (TimePoint t = TimePoint::origin() + step; t <= until; t += step) {
      sim.schedule_at(t, [&log, &mc, &sim, c] {
        const auto& k = mc.interconnect().counters();
        log.insert(log.end(), {c, static_cast<std::uint64_t>(sim.now().count_ns()),
                               k.accesses_registered, k.bursts_charged, k.stall_ns_total});
      });
    }
  }
}

/// The merge at its definition: one event at a time, always from the core
/// with the lowest (next event time, core id).
void run_one_event_at_a_time(MulticoreSystem& mc, TimePoint until) {
  mc.start();
  for (;;) {
    std::uint32_t best = UINT32_MAX;
    TimePoint best_t = TimePoint::max();
    for (std::uint32_t c = 0; c < mc.num_cores(); ++c) {
      const sim::Simulator& sim = mc.core(c).simulator();
      if (!sim.idle() && sim.next_event_time() < best_t) {
        best = c;
        best_t = sim.next_event_time();
      }
    }
    if (best == UINT32_MAX || best_t > until) return;
    mc.core(best).simulator().step();
  }
}

void expect_run_matches_one_event_at_a_time(const SystemConfig& cfg, std::size_t irqs,
                                            Duration horizon) {
  MulticoreSystem fast(cfg);
  MulticoreSystem ref(cfg);
  std::vector<std::uint64_t> fast_log;
  std::vector<std::uint64_t> ref_log;
  const TimePoint until = TimePoint::origin() + horizon;
  for (MulticoreSystem* mc : {&fast, &ref}) {
    mc->enable_tracing();
    mc->set_run_to_horizon(true);
    if (irqs > 0) mc->attach_trace(0, rt_trace(irqs));
  }
  add_probes(fast, fast_log, Duration::us(1000), until);
  add_probes(ref, ref_log, Duration::us(1000), until);

  fast.run(horizon);
  run_one_event_at_a_time(ref, until);

  EXPECT_EQ(fast_log, ref_log) << "probes saw a different merged order";
  EXPECT_EQ(observe(fast), observe(ref));
  EXPECT_GT(fast.interconnect().counters().accesses_registered, 0u);
}

TEST(MulticoreSystemTest, RunMatchesOneEventAtATimeMerge) {
  // run() steps the earliest core for as long as it stays ahead of the
  // runner-up; the result must be the one-event-at-a-time (time, core, seq)
  // merge exactly.
  {
    SCOPED_TRACE("bandwidth hogs on four cores");
    expect_run_matches_one_event_at_a_time(contended_config(4), 300, Duration::ms(500));
  }
  {
    // A routed activation schedules its latch onto another core, ahead of
    // that core's next event.
    SCOPED_TRACE("cross-core routed source");
    auto cfg = contended_config(4);
    cfg.sources[0].core = 2;
    expect_run_matches_one_event_at_a_time(cfg, 300, Duration::ms(500));
  }
  {
    // Every core's 6000 us TDMA slots (and the probes) fall on the same
    // instants: ties must go to the lowest core id.
    SCOPED_TRACE("equal-instant TDMA ticks on all cores");
    expect_run_matches_one_event_at_a_time(contended_config(4), 0, Duration::ms(200));
  }
}

TEST(MulticoreSystemTest, CoreRelabelingIsInvariant) {
  const std::vector<std::uint32_t> perm = {2, 0, 3, 1};
  const auto base = contended_config(4);
  auto relabeled = base;
  relabeled.interconnect.budgets.assign(4, hw::CoreBandwidthBudget{});
  auto budgets = base.interconnect.budgets;
  budgets.resize(4);
  for (std::uint32_t c = 0; c < 4; ++c) {
    relabeled.interconnect.budgets[perm[c]] = budgets[c];
  }
  for (auto& p : relabeled.partitions) p.core = perm[p.core];
  for (auto& s : relabeled.sources) s.core = perm[s.core];

  MulticoreSystem a(base);
  MulticoreSystem b(relabeled);
  a.attach_trace(0, rt_trace(200));
  b.attach_trace(0, rt_trace(200));
  const auto done_a = a.run(Duration::s(60));
  const auto done_b = b.run(Duration::s(60));

  EXPECT_EQ(done_a, done_b);
  const auto& ka = a.interconnect().counters();
  const auto& kb = b.interconnect().counters();
  EXPECT_EQ(ka.stall_ns_total, kb.stall_ns_total);
  EXPECT_EQ(ka.bursts_charged, kb.bursts_charged);
  EXPECT_EQ(ka.accesses_registered, kb.accesses_registered);
  EXPECT_EQ(ka.accesses_throttled, kb.accesses_throttled);
  // Each relabeled core reproduces its original counterpart exactly.
  for (std::uint32_t c = 0; c < 4; ++c) {
    std::ostringstream ma;
    std::ostringstream mb;
    a.core(c).metrics_snapshot().write_text(ma);
    b.core(perm[c]).metrics_snapshot().write_text(mb);
    EXPECT_EQ(ma.str(), mb.str()) << "core " << c << " vs relabeled " << perm[c];
  }
}

TEST(MulticoreSystemTest, SnapshotRestoreReproducesTheRun) {
  MulticoreSystem mc(contended_config(4));
  mc.enable_tracing();
  mc.attach_trace(0, rt_trace(150));
  mc.start();
  mc.run_continue(TimePoint::at_us(100'000));
  const auto snap = mc.snapshot();

  mc.run_continue(TimePoint::at_us(60'000'000));
  const auto first = fingerprint(mc);
  const auto done_first = mc.completed_bottom_handlers();

  mc.restore(snap);
  mc.run_continue(TimePoint::at_us(60'000'000));
  EXPECT_EQ(mc.completed_bottom_handlers(), done_first);
  EXPECT_EQ(fingerprint(mc), first);
}

TEST(MulticoreSystemTest, RestoreRejectsStraySharedWord) {
  // A writer that emits more than its reader consumes -- here after the
  // shared state that ends the stream -- must fail loudly in every build
  // type, not only where assert() is compiled in.
  MulticoreSystem mc(contended_config(2));
  mc.attach_trace(0, rt_trace(20));
  mc.start();
  mc.run_continue(TimePoint::at_us(10'000));
  auto snap = mc.snapshot();
  snap.words.push_back(0);
  EXPECT_THROW(mc.restore(snap), std::logic_error);
}

TEST(MulticoreSystemTest, MixedCritConfigMatchesCommittedGolden) {
  // Regression pin of configs/multicore_mixed_crit.ini: a 4-core mixed-
  // criticality system (regulated bandwidth hog vs interposed hard-RT
  // subscriber) must reproduce the committed run fingerprint exactly.
  // Regenerate with RTHV_UPDATE_GOLDEN=1 ./build/tests/test_multicore.
  const auto cfg = load_config_file(std::string(RTHV_CONFIG_DIR) +
                                    "/multicore_mixed_crit.ini");
  MulticoreSystem mc(cfg);
  mc.attach_trace(0, rt_trace(200, 7));
  mc.run(Duration::s(60));

  std::ostringstream os;
  mc.merged_recorder().write_summary(os);
  const auto& k = mc.interconnect().counters();
  os << "completed " << mc.completed_bottom_handlers() << "\n"
     << "interconnect/stall_ns " << k.stall_ns_total << "\n"
     << "interconnect/accesses_registered " << k.accesses_registered << "\n"
     << "interconnect/accesses_throttled " << k.accesses_throttled << "\n";
  const std::string got = os.str();

  const std::string golden_path =
      std::string(RTHV_MULTICORE_GOLDEN_DIR) + "/golden_mixed_crit.txt";
  if (std::getenv("RTHV_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    out << got;
    GTEST_SKIP() << "golden updated: " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace rthv::core
