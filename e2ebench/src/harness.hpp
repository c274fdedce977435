// Shared plumbing of the end-to-end benchmark: options, host clocks,
// quantiles, output digests, exact allocation counters, in-memory spans and
// the result report every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "exp/run_result.hpp"
#include "stats/latency_recorder.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";     // repository checkout (configs/ lives here)
  std::string spans_out;      // traced runs: where the span log goes
  bool inject_nonconserving = false;  // self-test: corrupt one conservation count
};

// --- statistics ---------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Nearest-rank percentile of a simulated latency summary, in microseconds.
[[nodiscard]] double latency_us(const rthv::stats::Summary& s, double p);

// --- exact counters -------------------------------------------------------------

/// Heap allocations made by the calling thread since it started (operator
/// new hook in alloc_hook.cpp; counts repeat exactly for a deterministic run).
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
[[nodiscard]] AllocCount thread_allocs();

/// Stops counting this thread's allocations while alive, so the harness's
/// own bookkeeping (span log growth) never shows in a layer's count.
struct AllocPause {
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

/// Allocations between construction and now on the calling thread.
class AllocScope {
 public:
  AllocScope() : start_(thread_allocs()) {}
  [[nodiscard]] AllocCount delta() const {
    const auto now = thread_allocs();
    return {now.allocs - start_.allocs, now.bytes - start_.bytes};
  }

 private:
  AllocCount start_;
};

/// Moves the calling thread, and the threads it starts from then on, to the
/// next `width` of the CPUs this process may use, taking them in turn.
/// Called before every timed pass, so the passes of one run spread over all
/// CPUs: on a shared host one CPU can be slowed by a neighbour for longer
/// than a whole run, and the fastest passes then come from the others.
/// Does nothing when the process may use no more than `width` CPUs.
void next_cpus(std::size_t width);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

// --- output digest -------------------------------------------------------------

/// FNV-1a over the simulated outputs of a workload pass.
class Digest {
 public:
  void add(std::uint64_t v);
  void add_i64(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_str(std::string_view s);
  /// Everything a RunResult carries that is simulated behaviour: every
  /// latency sample in order, class counts, switch, denial and loss counts,
  /// and the contents of every metrics histogram (names are left out so a
  /// rename does not read as a behaviour change).
  void add_run(const rthv::exp::RunResult& run);
  void add_recorder(const rthv::stats::LatencyRecorder& rec);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// --- spans ---------------------------------------------------------------------

/// In-memory span log for traced runs. Spans nest per thread; a span's
/// layer is its name up to the first '.'. Disabled, begin/end are no-ops.
class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t run;
  };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::int32_t begin(const char* name, std::uint64_t run);
  void end(std::int32_t id);

  /// Per-layer self time (span time minus the time its child spans cover).
  struct LayerTime {
    std::string layer;
    std::uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  [[nodiscard]] std::vector<LayerTime> self_times() const;

  /// Writes one CSV line per span: id,name,start_ns,end_ns,parent,run.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Spans& spans();

/// RAII span around one public call into a layer.
class Scoped {
 public:
  Scoped(const char* name, std::uint64_t run = 0)
      : id_(spans().enabled() ? spans().begin(name, run) : -1) {}
  ~Scoped() {
    if (id_ >= 0) spans().end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::int32_t id_;
};

// --- report ---------------------------------------------------------------------

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the log
  std::string digest;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), {value, std::move(unit)}});
  }
  void fail(std::uint64_t runs, const std::string& why);

  /// One JSON object on one line.
  [[nodiscard]] std::string json(const Options& opt) const;
};

/// One timed pass of a workload: host seconds inside the timed region, the
/// simulated IRQs it completed, the runs it made and each run's host time.
/// Passes of different work (paper_suite's steps) carry different groups;
/// the fastest tenth is then taken within each group.
struct Pass {
  double seconds = 0;
  std::uint64_t irqs = 0;
  std::uint64_t runs = 0;
  std::vector<double> run_us;
  std::size_t group = 0;
};

/// The end-to-end metric set every workload reports, in one place.
///
/// Host-time metrics come from the fastest tenth of the run's passes (by
/// runs per second): sim_irqs_per_s and runs_per_s are their totals over
/// their time, run_us_p50 the median of their runs. On a shared host a
/// neighbour's load only ever slows a pass, and the share of slowed passes
/// varies from run to run; the fast tail is what repeats.
/// `rate_passes` supplies runs_per_s where a workload times its runs
/// separately from its IRQs (hunt_storm); otherwise pass `passes` twice.
/// Then peak memory and the simulated latency distribution.
void report_end_to_end(Report& report, double setup_s, const std::vector<Pass>& passes,
                       const std::vector<Pass>& rate_passes,
                       const rthv::stats::LatencyRecorder& latency);

/// Host time of every run in the fastest tenth of `passes`, in microseconds.
[[nodiscard]] std::vector<double> fast_run_us(const std::vector<Pass>& passes);

/// Times a workload's complete set-up: `reps` times before the timed region
/// (the caller keeps what the last one built), then again at the first pass
/// boundary a second or more after the previous one. A neighbour's load
/// shifts the host's speed over seconds, so the median then covers the whole
/// run rather than its first moments. Set-up is deterministic, so a repeat
/// rebuilds the same inputs. `release` frees what the previous set-up and
/// the passes since built, outside the timed region: tearing down a system
/// that has run is not set-up work.
class SetupClock {
 public:
  SetupClock(int reps, std::function<void()> release, std::function<void()> setup)
      : release_(std::move(release)), setup_(std::move(setup)) {
    for (int i = 0; i < reps; ++i) run_once();
  }
  void between_passes() {
    if (seconds_since(last_) >= 1.0) run_once();
  }
  [[nodiscard]] double median_s() const { return median(times_); }

 private:
  void run_once() {
    release_();
    const auto t0 = Clock::now();
    setup_();
    times_.push_back(seconds_since(t0));
    last_ = Clock::now();
  }

  std::function<void()> release_;
  std::function<void()> setup_;
  std::vector<double> times_;
  Clock::time_point last_;
};

/// Event conservation of one single-core run: every raised activation ends
/// completed, lost to the non-counting latch, or dropped by a full queue.
struct Conservation {
  std::uint64_t raised = 0;
  std::uint64_t completed = 0;
  std::uint64_t lost = 0;
  std::uint64_t dropped = 0;
  [[nodiscard]] bool holds() const { return completed + lost + dropped == raised; }
};

/// Reads the counts of a finished single-core run through public accessors
/// (`raised` = activations attached to its sources).
[[nodiscard]] Conservation conservation(const rthv::core::HypervisorSystem& system,
                                        std::uint64_t raised);

/// Checks a finished run's conservation and records a failure if it breaks.
/// With --inject-nonconserving the first check sees one extra completion
/// (self-test of the check itself).
void check_conservation(const Options& opt, Report& report, const Conservation& c,
                        std::string_view what, std::uint64_t run);

// Workloads (one translation unit each).
void run_paper_suite(const Options& opt, Report& report);
void run_campaign(const Options& opt, Report& report);
void run_hunt_storm(const Options& opt, Report& report);
void run_multicore(const Options& opt, Report& report);

}  // namespace e2e
