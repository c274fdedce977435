// Offline worst-case interrupt-latency analysis tool.
//
// Computes, without running any simulation, the analytic worst-case
// latencies of Sections 4 and 5.1 for the paper's evaluation platform
// across a sweep of activation models, and shows how the designer would
// pick d_min: the smallest admissible distance whose interposed analysis
// still converges and whose interference bound (Eq. 14) fits the victim
// partitions' slack.
//
// Usage: wcrt_analysis_tool [c_bottom_us [c_top_us]]
// Each cost is a non-negative integer count of microseconds; anything else
// prints "error: ..." and exits 2.
#include <iostream>

#include "analysis/task_wcrt.hpp"
#include "core/analysis_facade.hpp"
#include "sim/text_input.hpp"
#include "stats/table.hpp"

using namespace rthv;
using sim::Duration;

int main(int argc, char** argv) {
  auto cfg = core::SystemConfig::paper_baseline();
  for (int i = 1; i < argc && i <= 2; ++i) {
    const auto cost = sim::parse_duration(argv[i], Duration::us(1));
    if (!cost) {
      std::cerr << "error: " << (i == 1 ? "c_bottom_us" : "c_top_us")
                << " needs a non-negative integer, got '" << argv[i] << "'\n";
      return 2;
    }
    (i == 1 ? cfg.sources[0].c_bottom : cfg.sources[0].c_top) = *cost;
  }

  const core::AnalysisFacade facade(cfg);
  const auto oh = facade.overhead_times();
  const auto tdma = facade.tdma_model(0);
  const Duration c_bh_eff = facade.effective_bottom_cost(0);

  std::cout << "platform: 200 MHz, T_TDMA = " << tdma.cycle << ", subscriber slot "
            << tdma.slot << "\n";
  std::cout << "source: C_TH = " << cfg.sources[0].c_top
            << ", C_BH = " << cfg.sources[0].c_bottom << ", C'_TH = "
            << analysis::effective_top_cost(cfg.sources[0].c_top, oh)
            << ", C'_BH = " << c_bh_eff << " (Eqs. 13/15)\n\n";

  stats::Table table({"d_min [us]", "load %", "delayed WCRT [us]", "interposed WCRT [us]",
                      "improvement", "Eq.14 bound/cycle [us]"});
  auto monitored = cfg;
  monitored.sources[0].monitor = core::MonitorKind::kDeltaMin;
  for (std::int64_t d_us = 200; d_us <= 51200; d_us *= 2) {
    const Duration d_min = Duration::us(d_us);
    monitored.sources[0].d_min = d_min;
    const core::AnalysisFacade candidate(monitored);
    const auto [delayed, interposed] =
        candidate.compare(0, analysis::make_sporadic(d_min), true);
    const double load = static_cast<double>(c_bh_eff.count_ns()) /
                        static_cast<double>(d_min.count_ns()) * 100.0;
    std::string improvement = "-";
    if (delayed && interposed) {
      improvement = stats::Table::num(static_cast<double>(delayed->worst_case.count_ns()) /
                                          static_cast<double>(interposed->worst_case.count_ns()),
                                      1) + "x";
    }
    table.add_row(
        {std::to_string(d_us), stats::Table::num(load),
         delayed ? stats::Table::num(delayed->worst_case.as_us()) : "diverges",
         interposed ? stats::Table::num(interposed->worst_case.as_us()) : "diverges",
         improvement, stats::Table::num(candidate.interference(0, tdma.cycle)->as_us())});
  }
  table.write(std::cout);

  std::cout << "\nreading guide:\n"
               "  * 'diverges' marks d_min values whose interposed load C'_BH/d_min\n"
               "    exceeds the processor share -- the monitor must not admit them.\n"
               "  * the delayed WCRT is dominated by T_TDMA - T_i ("
            << (tdma.cycle - tdma.slot) << ") regardless of d_min.\n"
               "  * the Eq. 14 column is the CPU time per TDMA cycle that other\n"
               "    partitions can lose to interposed handling; pick the smallest\n"
               "    d_min whose bound fits every victim partition's slack.\n";

  // Periodic-with-jitter example: a fieldbus with known jitter.
  std::cout << "\nperiodic-with-jitter source (P = 10ms, J = 2ms):\n";
  const auto [delayed_pj, interposed_pj] =
      facade.compare(0, analysis::make_periodic(Duration::ms(10), Duration::ms(2)), true);
  std::cout << "  delayed WCRT:    "
            << (delayed_pj ? delayed_pj->worst_case.to_string() : "diverges") << "\n"
            << "  interposed WCRT: "
            << (interposed_pj ? interposed_pj->worst_case.to_string() : "diverges")
            << "\n";

  // Victim-partition schedulability: what does admitting interposed IRQs
  // cost the *other* partition's tasks (sufficient temporal independence,
  // quantified)?
  std::cout << "\nvictim-partition task WCRTs (partition 1's slot geometry, tasks: "
               "control 2ms/300us prio 1, logger 20ms/2ms prio 5):\n";
  stats::Table victims({"d_min [us]", "control WCRT [us]", "logger WCRT [us]"});
  for (const std::int64_t d_us : {0, 3200, 1600, 800}) {
    analysis::PartitionTaskAnalysis m;
    m.service =
        analysis::SlotTableModel::single_slot(tdma.cycle, tdma.slot, tdma.entry_overhead);
    if (d_us > 0) {
      m.foreign_interpositions.push_back(analysis::BottomHandlerLoad{
          c_bh_eff, analysis::make_sporadic(Duration::us(d_us))});
    }
    m.tasks.push_back(analysis::GuestTaskModel{"control", 1, Duration::us(300),
                                               analysis::make_periodic(Duration::ms(2))});
    m.tasks.push_back(analysis::GuestTaskModel{"logger", 5, Duration::ms(2),
                                               analysis::make_periodic(Duration::ms(20))});
    const auto results = analysis::analyze_all_tasks(m);
    victims.add_row(
        {d_us == 0 ? std::string("(no interposing)") : std::to_string(d_us),
         results[0].wcrt ? stats::Table::num(results[0].wcrt->as_us()) : "unschedulable",
         results[1].wcrt ? stats::Table::num(results[1].wcrt->as_us()) : "unschedulable"});
  }
  victims.write(std::cout);
  std::cout << "  each admitted interposition costs the victim at most C'_BH; the\n"
               "  degradation is bounded by Eq. 14 whatever the IRQ source does.\n";
  return 0;
}
