// Aggregatable outcome of a single HypervisorSystem run.
//
// Parallel sweeps produce one RunResult per run; merge() folds them in run
// order so the aggregate is independent of which thread finished first.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "stats/latency_recorder.hpp"

namespace rthv::core {
class HypervisorSystem;
}

namespace rthv::exp {

struct RunResult {
  stats::LatencyRecorder recorder;
  std::uint64_t completed = 0;
  std::uint64_t tdma_switches = 0;
  std::uint64_t interpose_switches = 0;
  std::uint64_t deferred_switches = 0;
  std::uint64_t denied_by_monitor = 0;
  std::uint64_t lost_raises = 0;
  /// Per-run metrics; merge() folds counters/histograms deterministically
  /// (call in run-index order, like the recorder).
  obs::MetricsSnapshot metrics;
  /// Trace snapshot + names; empty unless the run enabled tracing.
  std::vector<obs::TraceEvent> trace;
  obs::TraceMeta trace_meta;
  std::uint64_t trace_dropped = 0;

  /// Snapshots recorder, counters, metrics and trace from a finished run.
  [[nodiscard]] static RunResult capture(const core::HypervisorSystem& system);

  /// Folds `other` into this result. Call in run-index order: recorder
  /// samples are appended, so the merged sample order equals the
  /// sequential run's order.
  void merge(RunResult&& other);
};

}  // namespace rthv::exp
