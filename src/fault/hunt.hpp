// Coverage-guided adversarial campaign driver (the library behind
// tools/rthv_hunt).
//
// A hunt runs one expensive prefix once and thousands of cheap suffixes:
// each worker builds a full system replica, arms the *base* fault plan,
// runs to a configurable fork point (a wall-clock instant, the Nth TDMA
// slot switch, or a monitor reaching observation depth k) and takes a
// HypervisorSystem snapshot there. Every candidate evaluation then is
// restore + arm a mutated plan + run the remaining horizon -- a fraction of
// the events a from-scratch campaign (PR 4 style) pays per try.
//
// Search: classic coverage-guided fuzzing over fault-plan parameters. A
// candidate's behavior is distilled into an obs::CoverageMap (trace points,
// per-source admission-ratio deciles, oracle-proximity buckets, latency
// buckets); mutants that light up new bits join the corpus and seed further
// mutations, which is what walks activation patterns toward the Eq. 14
// boundary instead of sampling blindly. Each evaluation marks its trace
// points straight from the ring's two retained blocks
// (CoverageMap::mark_points, one byte store per record) after the oracle
// has replayed the same blocks; neither copies the ring.
//
// Determinism contract: mutation randomness is derived per global candidate
// index with exp::derive_seed before any evaluation runs; candidates are
// statically sharded over workers (index mod jobs, one exp::BatchRunner
// index per worker) and their results are folded at a generation barrier
// in global index order. Only min(jobs, population) workers are built (at
// least one): with more jobs than candidates, candidate i runs on worker i
// either way, so the surplus replicas would only pay the prefix. A hunt is
// therefore
// a pure function of (config, seed): coverage map, findings and reproducers
// are bit-identical for any --jobs value. Findings replay standalone: a
// fresh system re-runs the deterministic prefix to the fork point and arms
// the reproducer there -- no snapshot taken or restored -- so a reproducer
// that replays proves the finding is real behavior, not a snapshot
// artifact. Mutated injector starts are clamped to the fork instant so the
// reproducer schedules nothing into the already-executed prefix.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "fault/fault_plan.hpp"
#include "fault/oracle.hpp"
#include "obs/coverage.hpp"
#include "sim/time.hpp"

namespace rthv::fault {

/// Where every worker forks its snapshot.
struct HuntForkPoint {
  enum class Kind : std::uint8_t {
    kTime,          // at the given simulated instant
    kSlotBoundary,  // after the Nth TDMA slot switch
    kMonitorDepth,  // once `source`'s monitor has observed >= depth events
  };
  Kind kind = Kind::kTime;
  sim::TimePoint time;        // kTime: the fork instant
  std::uint64_t boundary = 0; // kSlotBoundary: N
  std::uint32_t source = 0;   // kMonitorDepth: monitored source index
  std::uint64_t depth = 0;    // kMonitorDepth: k
};

/// A self-contained finding: arm `plan` with `engine_seed` on a fresh
/// system (next to the hunt's base plan) and the violation reproduces.
struct HuntReproducer {
  FaultPlan plan;
  std::uint64_t engine_seed = 0;
  std::uint64_t global_index = 0;  // candidate index that found it
};

struct HuntConfig {
  /// Builds a fresh, unstarted system replica: configuration applied,
  /// traces attached, tracing enabled, monitor weakened if the scenario
  /// wants that. Called once per worker (min(jobs, population), at least
  /// one) plus once per standalone replay.
  std::function<std::unique_ptr<core::HypervisorSystem>()> make_system;

  /// Environment plan armed before the fork (may be empty); its engine is
  /// the snapshot's checkpoint client, so pending base injections survive
  /// every restore. Seeded with derive_seed(seed, 0).
  FaultPlan base_plan;

  /// Initial mutation corpus; at least one (possibly empty) plan.
  std::vector<FaultPlan> corpus;

  HuntForkPoint fork;
  sim::Duration horizon;            // total simulated length from t=0
  std::uint64_t seed = 1;
  std::uint32_t generations = 8;
  std::uint32_t population = 16;    // candidates per generation
  std::uint32_t jobs = 1;           // worker replicas (BatchRunner jobs); capped at population
  /// Off = random campaign baseline: the corpus never grows, every mutant
  /// derives from the initial corpus (what PR 4's sweep-based campaigns
  /// do); the coverage map is still collected for reporting.
  bool coverage_guided = true;
  std::uint64_t event_budget = 0;   // post-fork sim events; 0 = unbounded
  bool stop_on_violation = true;
  /// Also count a run whose worst bottom-handler latency reaches this as a
  /// finding (latency-pathological schedule); zero disables.
  sim::Duration latency_threshold;
  /// Greedy reproducer minimization (drop injections, halve counts).
  bool minimize = true;
};

struct HuntResult {
  bool found = false;
  HuntReproducer reproducer;     // valid iff found (minimized if enabled)
  OracleReport report;           // the finding's oracle verdict
  std::int64_t max_latency_ns = 0;  // of the finding run
  obs::CoverageMap coverage;     // global map over all evaluations
  std::uint64_t evaluations = 0;
  std::uint64_t sim_events = 0;          // post-fork events, all evaluations
  std::uint64_t sim_events_at_find = 0;  // spent when the finding surfaced
  std::uint64_t events_to_fork = 0;      // prefix cost paid once per worker
  std::size_t corpus_size = 0;
  std::uint32_t generations_run = 0;
};

/// Runs the campaign. Throws std::invalid_argument on an unusable config
/// (no make_system, empty corpus, non-positive horizon).
[[nodiscard]] HuntResult run_hunt(const HuntConfig& cfg);

/// Replays a finding standalone: a fresh system runs the deterministic
/// prefix to the fork point, arms the reproducer plan there and runs the
/// full horizon -- no snapshot involved. Returns the oracle verdict;
/// `max_latency_ns` (optional) receives the run's worst bottom-handler
/// latency.
[[nodiscard]] OracleReport replay_reproducer(const HuntConfig& cfg,
                                             const HuntReproducer& repro,
                                             std::int64_t* max_latency_ns = nullptr);

}  // namespace rthv::fault
