// Multi-core static-partitioning platform.
//
// Assembles one complete HypervisorSystem (simulator, platform, hypervisor,
// guests) per core from a single SystemConfig whose partitions carry core
// assignments, couples the per-core platforms through one shared
// hw::SharedInterconnect, and merges the per-core event streams into a
// single deterministic execution.
//
// Merge invariant. Each core owns its own EventQueue; the run loop always
// steps the core whose next pending event is globally earliest, breaking
// time ties by lowest core id. Together with per-queue FIFO ordering among
// equal-time events this totally orders every event by (time, core, seq),
// so a run is a pure function of the configuration and attached traces --
// independent of host parallelism (--jobs) and, because cross-core coupling
// is commutative (interconnect demand is epoch-bucketed addition, routed
// raises latch at absolute times), invariant under core relabeling. See
// ARCHITECTURE.md, "Multi-core platform".
//
// Cross-core IRQ routing. A source whose `core` differs from its
// subscriber partition's core is driven on the *origin* core's clock; each
// activation pays the interconnect's route delay (fixed latency + an
// uncolored burst charged to the origin core) before latching the line on
// the subscriber core's interrupt controller.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "core/system_config.hpp"
#include "hw/multicore/interconnect.hpp"
#include "obs/metrics.hpp"
#include "sim/state_io.hpp"
#include "sim/time.hpp"
#include "stats/latency_recorder.hpp"
#include "workload/trace.hpp"

namespace rthv::core {

/// Drives a cross-core IRQ source: replays a precomputed interarrival trace
/// on the origin core's simulator and, per activation, schedules the latch
/// on the subscriber core's interrupt controller after the interconnect's
/// route delay. The origin core never hosts the source's partition -- only
/// the device's wire.
class RoutedTraceDriver {
 public:
  RoutedTraceDriver(sim::Simulator& origin_sim, sim::Simulator& host_sim,
                    hw::InterruptController& host_intc, hw::IrqLine line,
                    hw::SharedInterconnect& interconnect,
                    std::uint32_t origin_core, std::uint32_t host_core,
                    workload::Trace trace);

  /// Schedules the first activation. Call once before running.
  void start();

  [[nodiscard]] bool exhausted() const { return next_ >= trace_.size(); }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }
  [[nodiscard]] const workload::Trace& trace() const { return trace_; }
  [[nodiscard]] hw::IrqLine line() const { return line_; }

  /// Replay cursor only; the armed activation and in-flight route events
  /// live in the two simulators' own snapshots.
  void snapshot_state(sim::StateWriter& w) const {
    w.u64(next_);
    w.u64(fired_);
    w.boolean(started_);
  }
  void restore_state(sim::StateReader& r) {
    next_ = r.u64();
    fired_ = r.u64();
    started_ = r.boolean();
  }

 private:
  void fire();

  sim::Simulator& origin_sim_;
  sim::Simulator& host_sim_;
  hw::InterruptController& host_intc_;
  hw::IrqLine line_;  // lint: transient(structural line assignment fixed at construction)
  hw::SharedInterconnect& interconnect_;
  std::uint32_t origin_core_ = 0;  // lint: transient(structural wiring fixed at construction)
  std::uint32_t host_core_ = 0;    // lint: transient(structural wiring fixed at construction)
  workload::Trace trace_;  // lint: transient(attached trace data is immutable; next_ is the replay cursor)
  std::size_t next_ = 0;
  std::uint64_t fired_ = 0;
  bool started_ = false;
};

class MulticoreSystem {
 public:
  /// Splits `config` into one per-core SystemConfig (partitions and
  /// schedule slots follow PartitionSpec::core; each source lands on its
  /// subscriber's core) and assembles the cores around one shared
  /// interconnect. Requires config.num_cores() >= 1, every partition core
  /// in range, at least one partition per core, and every non-zero partition
  /// color_mask to select a configured color (std::invalid_argument).
  explicit MulticoreSystem(const SystemConfig& config);

  MulticoreSystem(const MulticoreSystem&) = delete;
  MulticoreSystem& operator=(const MulticoreSystem&) = delete;

  [[nodiscard]] std::uint32_t num_cores() const {
    return static_cast<std::uint32_t>(cores_.size());
  }
  [[nodiscard]] HypervisorSystem& core(std::uint32_t c) { return *cores_.at(c); }
  [[nodiscard]] const HypervisorSystem& core(std::uint32_t c) const {
    return *cores_.at(c);
  }
  [[nodiscard]] hw::SharedInterconnect& interconnect() { return *interconnect_; }
  [[nodiscard]] const hw::SharedInterconnect& interconnect() const {
    return *interconnect_;
  }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// Core hosting global source `source_index` (= its subscriber's core)
  /// and the source's index within that core's split config.
  [[nodiscard]] std::uint32_t source_core(std::uint32_t source_index) const {
    return source_core_.at(source_index);
  }
  [[nodiscard]] std::uint32_t local_source_index(std::uint32_t source_index) const {
    return source_local_.at(source_index);
  }
  /// Core hosting global partition `partition_index`, and its local index.
  [[nodiscard]] std::uint32_t partition_core(std::uint32_t partition_index) const {
    return part_core_.at(partition_index);
  }
  [[nodiscard]] std::uint32_t local_partition_index(
      std::uint32_t partition_index) const {
    return part_local_.at(partition_index);
  }

  /// Attaches an activation trace to a configured source by *global* source
  /// index. Sources whose origin core equals the subscriber's core replay
  /// through the host core's hardware timer (exactly the single-core path);
  /// cross-core sources replay through a RoutedTraceDriver. Must be called
  /// before run().
  void attach_trace(std::uint32_t source_index, workload::Trace trace);

  /// Enables every core's trace ring (record-only).
  void enable_tracing(std::size_t capacity = obs::TraceRing::kDefaultCapacity);

  /// Keep CompletedIrq records on every core.
  void keep_completions(bool on);

  /// Ignore trace-completion accounting and always run to the horizon.
  void set_run_to_horizon(bool on) { run_to_horizon_ = on; }

  /// Starts every core without stepping any clock. run() does this
  /// implicitly; snapshot-based campaigns call start() once and then drive
  /// the merged clock with run_continue().
  void start();

  /// Runs the merged simulation until all attached activations completed
  /// their bottom handlers (or were lost to a non-counting latch) or until
  /// `horizon` past the current merged time. Returns completed bottom
  /// handlers summed over cores.
  std::uint64_t run(sim::Duration horizon);

  /// Steps the merged simulation up to the absolute instant `until`
  /// (events at exactly `until` are executed). Requires start(); callable
  /// repeatedly, including after restore().
  std::uint64_t run_continue(sim::TimePoint until);

  /// Earliest pending event time over all cores (the merged "now" frontier);
  /// TimePoint::max() when every core is idle.
  [[nodiscard]] sim::TimePoint next_event_time() const;

  [[nodiscard]] bool idle() const;

  /// Completed bottom handlers summed over cores.
  [[nodiscard]] std::uint64_t completed_bottom_handlers() const;

  /// Latency recorders of all cores merged into one.
  [[nodiscard]] stats::LatencyRecorder merged_recorder() const;

  /// Per-core metrics snapshots merged under "coreN/" prefixes, plus the
  /// shared interconnect's counters under "interconnect/".
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

  // --- checkpoint / restore -------------------------------------------------

  /// Full-state checkpoint in one word stream: every core's state in core
  /// order (HypervisorSystem::snapshot_state), then the shared state the
  /// cores do not own (interconnect accounting, routed-driver cursors,
  /// merged-run accounting).
  struct Snapshot {
    std::vector<std::uint64_t> words;
  };

  [[nodiscard]] Snapshot snapshot() const;

  /// Restore-in-place on this same system object (structural wiring must
  /// match, as for HypervisorSystem::restore). Throws std::logic_error on a
  /// structural mismatch or when the words are not consumed exactly.
  void restore(const Snapshot& snap);

 private:
  [[nodiscard]] std::uint64_t lost_on_routed_sources() const;

  SystemConfig config_;  // lint: transient(construction config; restore requires an identically configured system)
  std::unique_ptr<hw::SharedInterconnect> interconnect_;
  std::vector<std::unique_ptr<HypervisorSystem>> cores_;
  std::vector<std::unique_ptr<RoutedTraceDriver>> routed_;
  // Global -> (core, local) index maps, fixed by the config split.
  std::vector<std::uint32_t> part_core_;    // lint: transient(structural index map derived from config)
  std::vector<std::uint32_t> part_local_;   // lint: transient(structural index map derived from config)
  std::vector<std::uint32_t> source_core_;  // lint: transient(structural index map derived from config)
  std::vector<std::uint32_t> source_local_; // lint: transient(structural index map derived from config)
  std::uint64_t expected_ = 0;  // total trace activations attached
  bool run_to_horizon_ = false;
  bool started_ = false;
};

}  // namespace rthv::core
