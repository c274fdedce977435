// Reproduces Fig. 6c: monitoring enabled and all interarrival times floored
// at d_min, so the monitoring condition is never violated.
//
// Paper result (shape): direct ~40 %, interposed ~60 %, no delayed IRQs;
// average ~150 us (~16x better than Fig. 6a); worst-case latencies are no
// longer defined by the TDMA cycle length.
//
// usage: fig6c_no_violations [--jobs N] [--trace-out f.json] [--metrics-out f.json]
//        [--fault-plan PATH] [export-dir]
#include <exception>
#include <iostream>

#include "exp/cli.hpp"
#include "fig6_common.hpp"
#include "stats/table.hpp"

// Any failure after argument parsing (an unreadable fault plan, an export
// path that cannot be written) is reported as "error: ..." with exit 1.
int main(int argc, char** argv) try {
  const auto cli = rthv::exp::parse_cli(argc, argv);
  rthv::bench::Fig6Config config;
  config.monitored = true;
  config.enforce_floor = true;
  config.jobs = cli.jobs;
  config.trace = !cli.trace_out.empty();
  config.fault_plan = cli.fault_plan;
  const auto result = rthv::bench::run_fig6(config);
  rthv::bench::print_fig6_report(std::cout, "Fig. 6c -- monitoring enabled, no violations",
                                 config, result);
  if (!cli.positional.empty()) {
    rthv::bench::export_fig6(cli.positional[0], "fig6c",
                             "Fig. 6c -- monitoring enabled, no violations", result);
  }
  rthv::bench::export_fig6_observability(result, cli.trace_out, cli.metrics_out);

  // The headline improvement factor against the unmonitored run.
  rthv::bench::Fig6Config unmon = config;
  unmon.monitored = false;
  unmon.enforce_floor = false;
  const auto baseline = rthv::bench::run_fig6(unmon);
  if (!baseline.merged.recorder.all().empty() && !result.merged.recorder.all().empty()) {
    const double factor = static_cast<double>(baseline.merged.recorder.all().mean().count_ns()) /
                          static_cast<double>(result.merged.recorder.all().mean().count_ns());
    std::cout << "average-latency improvement over the unmonitored case: "
              << rthv::stats::Table::num(factor) << "x (paper: ~16x)\n";
  }
  std::cout << "paper reference: direct ~40%, interposed ~60%, delayed 0%, average "
               "~150us, worst case TDMA-independent\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
