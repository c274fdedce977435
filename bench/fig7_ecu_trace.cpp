// Reproduces Fig. 7 (Appendix A): average interrupt latency over IRQ events
// for a real-life (here: synthesized, see DESIGN.md) automotive-ECU
// activation trace with a self-learning delta^-[l] monitor, l = 5.
//
// The first 10 % of the trace is the learning phase (delayed/direct
// handling only, Algorithm 1 records minimum distances); afterwards the
// learned vector is adjusted to a predefined bound (Algorithm 2) and the
// system enters monitored run mode. Four bounds are evaluated:
//   a) non-binding (the learned pattern passes unchanged),
//   b) 25 %, c) 12.5 %, d) 6.25 % of the recorded load.
//
// Paper result (shape): learning-phase average ~2200 us (like the
// unmonitored case); run-phase averages ~120 / ~300 / ~900 / ~1600 us for
// a) .. d) -- average latency rises monotonically as the admitted load
// shrinks.
//
// usage: fig7_ecu_trace [export-dir]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <string_view>

#include "core/hypervisor_system.hpp"
#include "stats/export.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "workload/ecu_trace.hpp"

using namespace rthv;
using sim::Duration;

namespace {

struct Fig7Run {
  std::string label;
  std::optional<double> load_fraction;  // nullopt = non-binding bound
  Duration learn_avg;
  Duration run_avg;
  std::vector<std::pair<std::size_t, double>> series;  // (event idx, avg us)
};

Fig7Run run_bound(const workload::Trace& trace, std::size_t learn_events,
                  const std::string& label, std::optional<double> load_fraction) {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kLearning;
  cfg.sources[0].learning_depth = 5;
  cfg.sources[0].learning_events = learn_events;
  if (load_fraction) {
    // The predefined bound delta^-_bIp[l]: the trace's own minimum-distance
    // vector scaled to admit only the given fraction of the recorded load.
    const auto recorded = trace.prefix(learn_events).delta_vector(5);
    cfg.sources[0].delta_vector = mon::scale_for_load_fraction(recorded, *load_fraction);
  }

  core::HypervisorSystem system(cfg);
  system.keep_completions(true);
  system.attach_trace(0, trace);
  system.run(Duration::s(300));

  Fig7Run out;
  out.label = label;
  out.load_fraction = load_fraction;
  stats::Summary learn_phase;
  stats::Summary run_phase;
  stats::SlidingAverage sliding(500);
  std::size_t idx = 0;
  for (const auto& rec : system.completions()) {
    const auto avg = sliding.add(rec.latency());
    if (idx % 250 == 0) out.series.emplace_back(idx, avg.as_us());
    (rec.seq < learn_events ? learn_phase : run_phase).add(rec.latency());
    ++idx;
  }
  out.learn_avg = learn_phase.empty() ? Duration::zero() : learn_phase.mean();
  out.run_avg = run_phase.empty() ? Duration::zero() : run_phase.mean();
  return out;
}

// The only argument is the optional export directory; any option, or a
// second positional argument, is a usage error (exit 2) reported before the
// run.
std::optional<std::string> parse_export_dir(int argc, char** argv) {
  std::optional<std::string> dir;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--")) {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], argv[i]);
    } else if (dir) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", argv[0], argv[i]);
    } else {
      dir = std::string(arg);
      continue;
    }
    std::fprintf(stderr, "usage: %s [export-dir]\n", argv[0]);
    std::exit(2);
  }
  return dir;
}

}  // namespace

// Any failure after argument parsing (an export path that cannot be
// written) is reported as "error: ..." with exit 1.
int main(int argc, char** argv) try {
  const auto export_dir = parse_export_dir(argc, argv);
  workload::EcuTraceConfig trace_cfg;
  trace_cfg.target_activations = 11000;
  const auto trace = workload::EcuTraceSynthesizer(trace_cfg).synthesize();
  const std::size_t learn_events = trace.size() / 10;

  std::cout << "=== Fig. 7 -- automotive ECU activation trace (synthesized) ===\n";
  std::cout << "trace: " << trace.size() << " activations, span "
            << stats::Table::num(trace.span().as_s(), 2) << "s, mean distance "
            << trace.mean_distance() << ", min distance " << trace.min_distance()
            << "\nlearning phase: first " << learn_events
            << " activations (10%), delta^- depth l = 5\n\n";

  const std::vector<std::pair<std::string, std::optional<double>>> bounds = {
      {"a) unbounded", std::nullopt},
      {"b) 25% load", 0.25},
      {"c) 12.5% load", 0.125},
      {"d) 6.25% load", 0.0625},
  };

  std::vector<Fig7Run> runs;
  for (const auto& [label, fraction] : bounds) {
    runs.push_back(run_bound(trace, learn_events, label, fraction));
  }

  stats::Table table({"bound", "learn avg [us]", "run avg [us]", "paper run avg"});
  const char* paper_ref[] = {"~120us", "~300us", "~900us", "~1600us"};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    table.add_row({runs[i].label, stats::Table::num(runs[i].learn_avg.as_us()),
                   stats::Table::num(runs[i].run_avg.as_us()), paper_ref[i]});
  }
  table.write(std::cout);
  std::cout << "\npaper reference: learning-phase average ~2200us; run-phase average "
               "rises monotonically as the admitted load shrinks\n";

  std::cout << "\nsliding-average series (window 500, sampled every 250 events):\n";
  std::cout << "event";
  for (const auto& r : runs) std::cout << "," << r.label;
  std::cout << "\n";
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t row = 0; row < runs[0].series.size(); ++row) {
    std::vector<std::string> cells{std::to_string(runs[0].series[row].first)};
    for (const auto& r : runs) {
      cells.push_back(row < r.series.size() ? stats::Table::num(r.series[row].second)
                                            : std::string("-"));
    }
    std::cout << cells[0];
    for (std::size_t c = 1; c < cells.size(); ++c) std::cout << "," << cells[c];
    std::cout << "\n";
    csv_rows.push_back(std::move(cells));
  }

  if (export_dir) {
    const std::string& dir = *export_dir;
    std::string header = "event";
    for (const auto& r : runs) header += "," + r.label;
    stats::write_csv_file(dir + "/fig7.csv", header, csv_rows);
    stats::write_series_gnuplot(dir + "/fig7.gp", dir + "/fig7.csv",
                                "Fig. 7 -- average IRQ latency over IRQ events",
                                runs.size());
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
