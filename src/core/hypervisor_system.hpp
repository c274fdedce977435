// Fully assembled hypervisor system: simulator, platform, hypervisor,
// guest kernels, IRQ trace drivers and latency recording -- the library's
// main entry point for experiments and applications.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/system_config.hpp"
#include "core/trace_driver.hpp"
#include "guest/guest_kernel.hpp"
#include "hv/hypervisor.hpp"
#include "hw/platform.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"
#include "sim/simulator.hpp"
#include "sim/state_io.hpp"
#include "stats/latency_recorder.hpp"
#include "workload/trace.hpp"

namespace rthv::core {

/// Extra checkpointable state riding along with system snapshots -- e.g. a
/// fault engine's pending injector timers and RNG streams, which live
/// outside the system object graph. At most one client is attached at a
/// time; its state is serialized after everything the system owns, and its
/// counters appear in metrics_snapshot() after the completion counters.
class CheckpointClient {
 public:
  virtual ~CheckpointClient() = default;
  virtual void snapshot_state(sim::StateWriter& w) const = 0;
  virtual void restore_state(sim::StateReader& r) = 0;
  virtual void append_metrics(obs::MetricsSnapshot& out) const = 0;
};

class HypervisorSystem {
 public:
  /// Builds a single-core system. Throws std::invalid_argument on an
  /// inconsistent config, including one with num_cores() > 1 (those run on
  /// a MulticoreSystem) and one that names two partitions alike.
  explicit HypervisorSystem(const SystemConfig& config);

  HypervisorSystem(const HypervisorSystem&) = delete;
  HypervisorSystem& operator=(const HypervisorSystem&) = delete;

  /// Attaches an activation trace to a configured IRQ source. Must be
  /// called before run().
  void attach_trace(std::uint32_t source_index, workload::Trace trace);

  /// Pool-recycle hook: drops every attached trace driver (and the expiry
  /// hooks they installed on the source timers) so that a snapshot taken
  /// with zero drivers attached can be restored onto this system again.
  /// Must be followed by restore() of such a snapshot before the next run;
  /// on its own it leaves expected-completion accounting at zero.
  void clear_traces();

  /// Keep every CompletedIrq record (needed for per-event series such as
  /// Fig. 7); off by default to save memory on long runs.
  void keep_completions(bool on) { keep_completions_ = on; }

  /// Turns on the hypervisor's typed trace ring (record-only: enabling
  /// tracing never changes simulation results). May be called before or
  /// during a run; records wrap once `capacity` is exceeded.
  void enable_tracing(std::size_t capacity = obs::TraceRing::kDefaultCapacity);

  /// Starts the hypervisor and runs the simulation until either all
  /// attached trace activations have completed their bottom handlers or
  /// `horizon` passes. Returns the number of completed bottom handlers.
  std::uint64_t run(sim::Duration horizon);

  /// Starts guests, trace drivers and the hypervisor without stepping the
  /// simulation. run() does this implicitly; snapshot-based campaigns call
  /// start() once and then drive the clock with run_continue().
  void start();

  /// Steps the simulation up to the absolute instant `until`, honoring the
  /// same termination rules as run() (trace completion accounting, idle).
  /// Requires start(); callable repeatedly, including after restore().
  std::uint64_t run_continue(sim::TimePoint until);

  // --- checkpoint / restore --------------------------------------------------

  /// Full-state checkpoint of the assembled system: the words written by
  /// snapshot_state().
  struct SystemSnapshot {
    std::vector<std::uint64_t> words;
  };

  /// Captures the current state. Must be called between simulator events
  /// (never from inside a callback). Snapshots are repeatable: restoring
  /// and re-running does not consume them.
  [[nodiscard]] SystemSnapshot snapshot() const;

  /// Restores a snapshot in place on this same system object: wiring
  /// (configs, hooks, clients) is structural and must not have changed
  /// since the snapshot was taken. Throws std::logic_error on a client
  /// presence mismatch or when the words are not consumed exactly.
  void restore(const SystemSnapshot& snap);

  /// Writes, in order: the simulator core (event queue with its inline
  /// callbacks, clock), platform devices, guest kernels, trace-driver
  /// cursors, run flags, the entire hypervisor (including monitor
  /// tracebuffers and the trace ring), the latency recorder, the kept
  /// completions and, last, the checkpoint client's presence flag and
  /// state. MulticoreSystem writes its cores into its own stream this way.
  void snapshot_state(sim::StateWriter& w) const;
  /// Reads what snapshot_state() wrote; throws std::logic_error on a
  /// structural mismatch. The caller checks that the stream is exhausted.
  void restore_state(sim::StateReader& r);

  /// Attaches/detaches the single checkpoint client (see CheckpointClient).
  void attach_checkpoint_client(CheckpointClient* client);
  void detach_checkpoint_client(CheckpointClient* client);
  [[nodiscard]] CheckpointClient* checkpoint_client() const { return client_; }

  /// Ignore the attached-trace completion count and always run to the
  /// horizon (or simulator idleness). Fault-injection campaigns raise IRQs
  /// beyond the attached traces, so counting completions against the trace
  /// total would end the run early and non-obviously.
  void set_run_to_horizon(bool on) { run_to_horizon_ = on; }

  // --- access ---------------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] hw::Platform& platform() { return *platform_; }
  [[nodiscard]] const hw::Platform& platform() const { return *platform_; }
  [[nodiscard]] hv::Hypervisor& hypervisor() { return *hv_; }
  [[nodiscard]] const hv::Hypervisor& hypervisor() const { return *hv_; }
  [[nodiscard]] guest::GuestKernel& guest(std::uint32_t partition_index) {
    return *guests_.at(partition_index);
  }
  [[nodiscard]] const stats::LatencyRecorder& recorder() const { return recorder_; }
  [[nodiscard]] const std::vector<hv::CompletedIrq>& completions() const {
    return completions_;
  }
  [[nodiscard]] std::uint64_t completed_bottom_handlers() const { return recorder_.total(); }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  // --- observability --------------------------------------------------------
  /// Trace snapshot (oldest retained record first); empty unless
  /// enable_tracing() was called.
  [[nodiscard]] std::vector<obs::TraceEvent> trace() const {
    return hv_->trace_ring().snapshot();
  }
  [[nodiscard]] obs::TraceMeta trace_meta() const { return hv_->trace_meta(); }
  [[nodiscard]] std::uint64_t trace_dropped() const {
    return hv_->trace_ring().dropped();
  }

  /// Every metric of the system, derived from simulation state when called:
  /// irq_queue/dropped* from the partitions' queues, irq.completed* and
  /// irq.latency.* (0 ns, 85 buckets of 100 us) from the recorder's sample
  /// log, the checkpoint client's counters, then IRQ path stats, context
  /// switches, health counts, lost raises and the sim event count and clock.
  /// Never derived from trace counters, so the snapshot is identical with
  /// tracing on or off. Names are catalog literals or interned at
  /// construction (obs/metric_catalog.hpp), so this does no string work.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

 private:
  SystemConfig config_;  // lint: transient(construction config; restore requires an identically configured system)
  // lint: transient(interned irq_queue/dropped/<partition> names, derived from config_)
  std::vector<std::string_view> drop_counter_names_;
  sim::Simulator sim_;
  std::unique_ptr<hw::Platform> platform_;
  std::unique_ptr<hv::Hypervisor> hv_;
  std::vector<std::unique_ptr<guest::GuestKernel>> guests_;  // index = partition
  std::vector<std::unique_ptr<TraceIrqDriver>> drivers_;
  std::uint64_t expected_ = 0;  // total trace activations attached
  bool keep_completions_ = false;
  bool run_to_horizon_ = false;
  bool started_ = false;
  // lint: transient(external wiring; the client's state rides at the end of the snapshot words)
  CheckpointClient* client_ = nullptr;
  stats::LatencyRecorder recorder_;  // the one per-IRQ latency store
  std::vector<hv::CompletedIrq> completions_;
};

}  // namespace rthv::core
