// Shared harness for the Fig. 6 experiments (Section 6.1).
//
// Paper setup: two 6000 us application partitions + 2000 us housekeeping
// partition (T_TDMA = 14000 us), one monitored IRQ source subscribed by
// partition 2, C_TH = 5 us, C_BH = 40 us. IRQ interarrival times follow an
// exponential distribution; the long-term bottom-handler load U_IRQ is set
// by lambda = C'_BH / U_IRQ for U_IRQ in {1 %, 5 %, 10 %}, 5000 IRQs per
// load, 15000 total (histograms are cumulative over all loads). The
// monitoring distance d_min is a *system* property fixed at the highest
// load's lambda (C'_BH / 10 %), so lighter loads conform more often --
// matching the paper's reported 40/40/20 split in Fig. 6b.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/run_result.hpp"
#include "sim/time.hpp"
#include "stats/latency_recorder.hpp"

namespace rthv::bench {

struct Fig6Config {
  bool monitored = false;        // Fig. 6b/6c: modified top handler + d_min monitor
  bool enforce_floor = false;    // Fig. 6c: interarrival floored at d_min
  std::size_t irqs_per_load = 5000;
  std::vector<int> load_percent = {1, 5, 10};
  std::uint64_t seed = 2014;     // DAC'14
  std::size_t jobs = 1;          // worker threads; results identical for any value
  bool trace = false;            // record a typed trace of the first load step
  /// Fault-injection plan file (empty = none). Each load step runs the plan
  /// with its own derived seed and is replayed through the interference
  /// oracle; violations are merged into the result.
  std::string fault_plan;
};

struct Fig6Result {
  /// Every load step folded with exp::RunResult::merge in load order: the
  /// cumulative recorder and switch/admission counters, the metrics (their
  /// irq.latency.all histogram, 100 us bins, is the Fig. 6 panel) and the
  /// traces of the traced steps.
  exp::RunResult merged;
  std::vector<stats::LatencyRecorder> per_load;   // one per load step
  sim::Duration d_min;
  sim::Duration c_bh_eff;
  std::uint64_t fault_injected = 0;     // fault-engine actions over all loads
  std::uint64_t oracle_windows = 0;     // admission windows the oracle checked
  std::uint64_t oracle_violations = 0;  // Eq. 14 / Eq. 13 violations (must be 0)
};

/// Runs the experiment and returns cumulative + per-load statistics.
[[nodiscard]] Fig6Result run_fig6(const Fig6Config& config);

/// Prints the paper-style report: per-load table, cumulative class split,
/// averages and the latency histogram. Latency cells of a step without a
/// completed IRQ print "-".
void print_fig6_report(std::ostream& os, const char* title, const Fig6Config& config,
                       const Fig6Result& result);

/// Writes <dir>/<name>.csv (the latency histogram) and <dir>/<name>.gp (a
/// gnuplot script rendering it in the style of the paper's Fig. 6 panels).
void export_fig6(const std::string& dir, const std::string& name, const char* title,
                 const Fig6Result& result);

/// Writes the --trace-out (Chrome trace-event JSON, Perfetto loadable) and
/// --metrics-out (JSON, or text when the path ends in ".txt") artefacts;
/// empty paths are skipped.
void export_fig6_observability(const Fig6Result& result, const std::string& trace_out,
                               const std::string& metrics_out);

}  // namespace rthv::bench
