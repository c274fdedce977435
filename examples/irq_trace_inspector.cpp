// IRQ activation-trace inspector and d_min design assistant.
//
// Loads an interarrival-distance trace (CSV, one nanosecond distance per
// line after a 'distance_ns' header -- the format Trace::save_csv emits)
// or synthesizes a demo ECU trace when no path is given, then reports:
//   * rate / distance statistics,
//   * the recorded delta^-[l] vector (what a learning monitor would learn),
//   * for a range of candidate d_min values: how much of the trace would be
//     admitted for interposing, the resulting interference bound (Eq. 14),
//     and whether the interposed analysis converges.
//
// This is the integration workflow of Appendix A turned into a tool: record
// a trace on the target, inspect it offline, pick the monitoring condition.
//
// Usage: irq_trace_inspector [trace.csv [c_bottom_us]]
// A trace that cannot be loaded prints "error: ..." and exits 1; a
// c_bottom_us that is not a non-negative integer exits 2.
#include <exception>
#include <iostream>

#include "core/analysis_facade.hpp"
#include "mon/monitor.hpp"
#include "sim/text_input.hpp"
#include "stats/table.hpp"
#include "workload/ecu_trace.hpp"
#include "workload/trace.hpp"

using namespace rthv;
using sim::Duration;

int main(int argc, char** argv) try {
  workload::Trace trace;
  if (argc > 1) {
    trace = workload::Trace::load_csv_file(argv[1]);
    std::cout << "loaded " << trace.size() << " activations from " << argv[1] << "\n";
  } else {
    workload::EcuTraceConfig cfg;
    cfg.target_activations = 8000;
    trace = workload::EcuTraceSynthesizer(cfg).synthesize();
    std::cout << "no trace given -- synthesized a demo ECU trace ("
              << trace.size() << " activations)\n";
  }
  if (trace.size() < 16) {
    std::cerr << "trace too short to analyze\n";
    return 1;
  }

  auto config = core::SystemConfig::paper_baseline();
  if (argc > 2) {
    const auto c_bottom = sim::parse_duration(argv[2], Duration::us(1));
    if (!c_bottom) {
      std::cerr << "error: c_bottom_us needs a non-negative integer, got '" << argv[2]
                << "'\n";
      return 2;
    }
    config.sources[0].c_bottom = *c_bottom;
  }
  const Duration c_bh_eff = core::AnalysisFacade(config).effective_bottom_cost(0);

  std::cout << "\ntrace statistics:\n"
            << "  span            " << stats::Table::num(trace.span().as_s(), 2) << " s\n"
            << "  rate            " << stats::Table::num(trace.rate_hz(), 1) << " /s\n"
            << "  mean distance   " << trace.mean_distance() << "\n"
            << "  min distance    " << trace.min_distance() << "\n"
            << "  IRQ load        "
            << stats::Table::num(trace.rate_hz() * c_bh_eff.as_s() * 100.0)
            << "% of the CPU at C'_BH = " << c_bh_eff << "\n";

  std::cout << "\nrecorded delta^-[l] (what Algorithm 1 would learn):\n  ";
  const auto dv = trace.delta_vector(8);
  for (std::size_t i = 0; i < dv.size(); ++i) {
    std::cout << "delta[" << i + 1 << "]=" << dv[i].as_us() << "us ";
  }
  std::cout << "\n";

  std::cout << "\nd_min candidates (l = 1 monitor):\n";
  stats::Table table({"d_min [us]", "admitted", "Eq.14 bound/cycle [us]",
                      "interposed WCRT [us]"});
  const auto times = trace.activation_times();
  auto monitored = config;
  monitored.sources[0].monitor = core::MonitorKind::kDeltaMin;
  for (Duration d = std::max(Duration::us(50), trace.min_distance());
       d <= trace.mean_distance() * 4; d = d * 2) {
    mon::DeltaVectorMonitor monitor(mon::DeltaVector{d});
    std::uint64_t admitted = 0;
    for (const auto t : times) admitted += monitor.record_and_check(t);
    monitored.sources[0].d_min = d;
    const core::AnalysisFacade candidate(monitored);
    const auto wcrt = candidate.compare(0, analysis::make_sporadic(d), true).interposed;
    table.add_row(
        {stats::Table::num(d.as_us(), 0),
         stats::Table::num(100.0 * static_cast<double>(admitted) /
                           static_cast<double>(trace.size())) + "%",
         stats::Table::num(candidate.interference(0, config.tdma_cycle())->as_us()),
         wcrt ? stats::Table::num(wcrt->worst_case.as_us()) : "diverges"});
  }
  table.write(std::cout);
  std::cout << "\npick the largest d_min whose admitted share still meets the\n"
               "application's average-latency goal; the Eq. 14 column is the CPU\n"
               "time per TDMA cycle every other partition must budget for.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
