// Full-system checkpoint/restore round-trips (HypervisorSystem::snapshot).
//
// The contract: a snapshot at any instant captures the complete observable
// system -- simulator, platform, guests, hypervisor dispatch state, monitor
// histories, trace ring, metrics, latency recorder, and (through the
// CheckpointClient slot) an armed FaultEngine's pending injector state.
// Restoring and re-running the remaining horizon must reproduce the first
// continuation bit for bit, including mid-storm: queued fault actions and
// injector RNG streams survive the restore.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/hypervisor_system.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "obs/exporters.hpp"
#include "sim/state_io.hpp"
#include "workload/generators.hpp"

namespace rthv::core {
namespace {

using sim::Duration;
using sim::TimePoint;

SystemConfig monitored_baseline() {
  auto cfg = SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(1444);
  return cfg;
}

std::string config_path(const char* plan) {
  return std::string(RTHV_CONFIG_DIR) + "/" + plan;
}

/// The retained trace records, rendered to text.
std::string trace_text(const HypervisorSystem& system) {
  const auto meta = system.trace_meta();
  return obs::render_text(system.trace(), &meta);
}

/// Everything observable about a finished run, rendered to text: the full
/// trace stream, the metrics registry, and the completion counter.
std::string digest(const HypervisorSystem& system) {
  std::ostringstream out;
  out << trace_text(system);
  system.metrics_snapshot().write_json(out);
  out << "\ncompleted=" << system.completed_bottom_handlers()
      << "\nnow=" << system.simulator().now().count_ns()
      << "\nexecuted=" << system.simulator().executed_events() << "\n";
  return out.str();
}

/// Snapshot at `fork`, continue to 100 ms, restore, continue again: the two
/// continuations must match bit for bit. Returns the trace ring's dropped
/// count at the snapshot and at the end so callers can check it wrapped.
std::pair<std::uint64_t, std::uint64_t> check_continuation(std::size_t trace_capacity,
                                                           Duration fork) {
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing(trace_capacity);
  workload::ExponentialTraceGenerator gen(Duration::us(1444), 2014);
  system.attach_trace(0, gen.generate(64));

  system.run(fork);
  const auto snap = system.snapshot();
  const auto now_at_snap = system.simulator().now();
  const auto dropped_at_snap = system.trace_dropped();
  const auto trace_at_snap = trace_text(system);

  system.run_continue(TimePoint::at_us(100'000));
  const auto first = digest(system);
  const auto dropped_at_end = system.trace_dropped();

  system.restore(snap);
  EXPECT_EQ(system.simulator().now(), now_at_snap);
  EXPECT_EQ(system.trace_dropped(), dropped_at_snap);
  EXPECT_EQ(trace_text(system), trace_at_snap) << "restore misplaced trace records";
  system.run_continue(TimePoint::at_us(100'000));
  EXPECT_EQ(digest(system), first)
      << "restored continuation diverged from the original run";
  return {dropped_at_snap, dropped_at_end};
}

/// Snapshot at `fork`, then three restore + 45 ms rounds that must all end in
/// the same state. Returns the trace ring's dropped count at the snapshot and
/// at the end.
std::pair<std::uint64_t, std::uint64_t> check_repeatable_restore(std::size_t trace_capacity,
                                                                 Duration fork) {
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing(trace_capacity);
  workload::ExponentialTraceGenerator gen(Duration::us(1444), 7);
  system.attach_trace(0, gen.generate(32));

  system.run(fork);
  const auto snap = system.snapshot();
  const auto dropped_at_snap = system.trace_dropped();
  const auto trace_at_snap = trace_text(system);

  std::string first;
  for (int round = 0; round < 3; ++round) {
    system.restore(snap);
    EXPECT_EQ(trace_text(system), trace_at_snap) << "round " << round;
    system.run(Duration::ms(45));
    if (round == 0) {
      first = digest(system);
    } else {
      EXPECT_EQ(digest(system), first) << "round " << round;
    }
  }
  return {dropped_at_snap, system.trace_dropped()};
}

TEST(SystemSnapshotTest, ContinuationAfterRestoreIsBitIdentical) {
  const auto dropped_at_end =
      check_continuation(obs::TraceRing::kDefaultCapacity, Duration::ms(10)).second;
  EXPECT_EQ(dropped_at_end, 0u) << "the default ring must not wrap here";
}

TEST(SystemSnapshotTest, ContinuationAfterRestoreIsBitIdenticalWrappedRing) {
  // A 64-record ring wraps before the 30 ms snapshot (~4 records per ms
  // here) and again after it, so the restore has to place the retained
  // records at a mid-ring cursor.
  const auto [dropped_at_snap, dropped_at_end] = check_continuation(64, Duration::ms(30));
  EXPECT_GT(dropped_at_snap, 0u) << "ring must wrap before the snapshot";
  EXPECT_GT(dropped_at_end, dropped_at_snap + 64) << "ring must wrap after it";
}

TEST(SystemSnapshotTest, RestoreIsRepeatable) {
  const auto dropped_at_end =
      check_repeatable_restore(obs::TraceRing::kDefaultCapacity, Duration::ms(5)).second;
  EXPECT_EQ(dropped_at_end, 0u) << "the default ring must not wrap here";
}

TEST(SystemSnapshotTest, RestoreIsRepeatableWrappedRing) {
  const auto [dropped_at_snap, dropped_at_end] =
      check_repeatable_restore(64, Duration::ms(25));
  EXPECT_GT(dropped_at_snap, 0u) << "ring must wrap before the snapshot";
  EXPECT_GT(dropped_at_end, dropped_at_snap + 64) << "ring must wrap after it";
}

TEST(SystemSnapshotTest, TracedSnapshotGrowsFiveWordsPerRetainedRecord) {
  // The trace ring's share of the hypervisor's checkpoint words is a fixed
  // header (present traced or not) plus sizeof(TraceEvent) / 8 = 5 words per
  // retained record -- independent of the ring's capacity.
  const auto words_at_fork = [](std::size_t trace_capacity, std::size_t* retained) {
    HypervisorSystem system(monitored_baseline());
    if (trace_capacity > 0) system.enable_tracing(trace_capacity);
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 2014);
    system.attach_trace(0, gen.generate(64));
    system.run(Duration::ms(30));
    *retained = system.hypervisor().trace_ring().size();
    sim::StateWriter w;
    system.hypervisor().snapshot_state(w);
    return w.words().size();
  };
  std::size_t none = 0;
  std::size_t full = 0;
  std::size_t wrapped = 0;
  const std::size_t untraced = words_at_fork(0, &none);
  const std::size_t traced = words_at_fork(obs::TraceRing::kDefaultCapacity, &full);
  const std::size_t traced_small = words_at_fork(64, &wrapped);
  EXPECT_EQ(none, 0u);
  ASSERT_GT(full, 64u) << "the fork must hold more records than the small ring";
  EXPECT_EQ(wrapped, 64u);
  EXPECT_EQ(traced, untraced + 5 * full);
  EXPECT_EQ(traced_small, untraced + 5 * 64);
}

TEST(SystemSnapshotTest, ContinuationWithBothWorkSlotsEngaged) {
  // The fork lands inside a hypervisor sequence that cut partition-2's
  // bottom handler (bh_in_progress) while partition-1 holds its preempted
  // background chunk (saved_guest_work): both work slots go through the
  // checkpoint words, and the continuation must still match bit for bit.
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing();
  workload::ExponentialTraceGenerator gen(Duration::us(1444), 2014);
  system.attach_trace(0, gen.generate(400));
  system.start();
  const hv::Hypervisor& hv = system.hypervisor();
  const auto both_engaged = [&hv] {
    return hv.partition(1).bh_in_progress.has_value() &&
           hv.partition(0).saved_guest_work.has_value();
  };
  while (!(both_engaged() && hv.in_hv_context()) && !system.simulator().idle() &&
         system.simulator().now() < TimePoint::at_us(500'000)) {
    system.simulator().step();
  }
  ASSERT_TRUE(both_engaged()) << "no instant with both work slots engaged";
  ASSERT_TRUE(hv.in_hv_context()) << "the bottom handler must be cut, not running";

  const auto snap = system.snapshot();
  const auto fork = system.simulator().now();
  system.run_continue(fork + Duration::ms(40));
  const auto first = digest(system);

  system.restore(snap);
  EXPECT_TRUE(both_engaged()) << "restore lost a work slot";
  system.run_continue(fork + Duration::ms(40));
  EXPECT_EQ(digest(system), first)
      << "restored continuation diverged from the original run";
}

TEST(SystemSnapshotTest, MidStormFaultEngineRoundTrip) {
  // The committed campaign plan mixes deterministic storms with randomized
  // drift -- a snapshot taken mid-storm must carry the injectors' pending
  // timers and RNG streams, or the restored continuation loses raises.
  const auto plan = fault::load_fault_plan_file(config_path("fault_campaign.plan"));
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing();
  fault::FaultEngine engine(system, plan, 42);
  engine.arm();
  ASSERT_EQ(system.checkpoint_client(), &engine);

  system.run(Duration::ms(15));  // inside the storm phase
  const auto snap = system.snapshot();
  const auto injected_at_snap = engine.total_injected();

  const auto horizon =
      plan.horizon.is_positive() ? plan.horizon : Duration::s(1);
  system.run_continue(TimePoint::origin() + horizon);
  const auto first = digest(system);
  const auto injected_first = engine.total_injected();
  ASSERT_GT(injected_first, injected_at_snap)
      << "the snapshot must sit before the plan is exhausted";

  system.restore(snap);
  EXPECT_EQ(engine.total_injected(), injected_at_snap)
      << "restore must rewind the injector counters";
  system.run_continue(TimePoint::origin() + horizon);
  EXPECT_EQ(engine.total_injected(), injected_first)
      << "restored continuation dropped queued fault actions";
  EXPECT_EQ(digest(system), first);
}

TEST(SystemSnapshotTest, RestoreDropsMutantSideEffects) {
  // The hunt work loop: snapshot with the base engine attached, arm a
  // scoped mutant engine, run, throw the mutant away, restore. Nothing the
  // mutant did -- raises, metrics registrations, trace entries -- may leak
  // into the restored state.
  const auto base_plan =
      fault::load_fault_plan_file(config_path("fault_storm.plan"));
  HypervisorSystem system(monitored_baseline());
  system.enable_tracing();
  fault::FaultEngine base(system, base_plan, 1);
  base.arm();

  system.run(Duration::ms(10));
  const auto snap = system.snapshot();
  const auto now_at_snap = system.simulator().now();
  std::ostringstream at_snap;
  system.metrics_snapshot().write_json(at_snap);

  {
    fault::InjectionSpec spec;
    spec.kind = fault::FaultKind::kFlood;
    spec.source = 0;
    spec.start = TimePoint::at_us(11'000);
    spec.count = 20;
    spec.distance = Duration::us(100);
    fault::FaultPlan mutant_plan;
    mutant_plan.injections.push_back(spec);
    fault::FaultEngine mutant(system, mutant_plan, 2);
    mutant.arm();  // base holds the checkpoint slot; the mutant rides along
    ASSERT_EQ(system.checkpoint_client(), &base);
    system.run_continue(TimePoint::at_us(40'000));
    ASSERT_GT(mutant.total_injected(), 0u);
  }

  system.restore(snap);
  std::ostringstream after_restore;
  system.metrics_snapshot().write_json(after_restore);
  EXPECT_EQ(after_restore.str(), at_snap.str())
      << "mutant metrics survived the restore";
  EXPECT_EQ(system.simulator().now(), now_at_snap);
}

TEST(SystemSnapshotTest, ClientPresenceMismatchThrows) {
  // A snapshot taken without a checkpoint client cannot be restored while
  // one is attached (its state would be silently invented), and vice versa.
  HypervisorSystem system(monitored_baseline());
  system.run(Duration::ms(1));
  const auto snap = system.snapshot();

  fault::FaultPlan plan;  // empty plan still claims the checkpoint slot
  fault::FaultEngine engine(system, plan, 1);
  engine.arm();
  ASSERT_EQ(system.checkpoint_client(), &engine);
  EXPECT_THROW(system.restore(snap), std::logic_error);
}

TEST(SystemSnapshotTest, RestoreRejectsStrayTrailingWord) {
  // A writer that emits more than its reader consumes must fail loudly in
  // every build type, not only where assert() is compiled in.
  HypervisorSystem system(monitored_baseline());
  system.run(Duration::ms(1));
  auto snap = system.snapshot();
  snap.words.push_back(0);
  EXPECT_THROW(system.restore(snap), std::logic_error);
}

}  // namespace
}  // namespace rthv::core
