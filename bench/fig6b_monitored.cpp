// Reproduces Fig. 6b: IRQ latency histogram with monitoring enabled;
// arrivals are exponential and may violate d_min.
//
// Paper result (shape): direct ~40 %, interposed ~40 %, delayed ~20 %;
// average ~1200 us; the worst case is still defined by the TDMA cycle
// (identical to the unmonitored case) because violating IRQs are delayed.
//
// usage: fig6b_monitored [--jobs N] [--trace-out f.json] [--metrics-out f.json]
//        [--fault-plan PATH] [export-dir]
#include <exception>
#include <iostream>

#include "exp/cli.hpp"
#include "fig6_common.hpp"

// Any failure after argument parsing (an unreadable fault plan, an export
// path that cannot be written) is reported as "error: ..." with exit 1.
int main(int argc, char** argv) try {
  const auto cli = rthv::exp::parse_cli(argc, argv);
  rthv::bench::Fig6Config config;
  config.monitored = true;
  config.enforce_floor = false;
  config.jobs = cli.jobs;
  config.trace = !cli.trace_out.empty();
  config.fault_plan = cli.fault_plan;
  const auto result = rthv::bench::run_fig6(config);
  rthv::bench::print_fig6_report(std::cout, "Fig. 6b -- monitoring enabled", config,
                                 result);
  if (!cli.positional.empty()) {
    rthv::bench::export_fig6(cli.positional[0], "fig6b", "Fig. 6b -- monitoring enabled",
                             result);
  }
  rthv::bench::export_fig6_observability(result, cli.trace_out, cli.metrics_out);
  std::cout << "paper reference: direct ~40%, interposed ~40%, delayed ~20%, average "
               "~1200us, worst case still TDMA-bound\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
