// Reproduces Fig. 6a: IRQ latency histogram with monitoring disabled.
//
// Paper result (shape): ~40 % direct IRQs below ~50 us, ~60 % delayed IRQs
// approximately uniform in (0, T_TDMA - T_i] = (0, 8000 us]; average
// latency ~2500 us over 15000 IRQs; worst case ~8000 us.
//
// usage: fig6a_unmonitored [--jobs N] [--trace-out f.json] [--metrics-out f.json]
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
  config.monitored = false;
  config.enforce_floor = false;
  config.jobs = cli.jobs;
  config.trace = !cli.trace_out.empty();
  config.fault_plan = cli.fault_plan;
  const auto result = rthv::bench::run_fig6(config);
  rthv::bench::print_fig6_report(std::cout, "Fig. 6a -- monitoring disabled", config,
                                 result);
  if (!cli.positional.empty()) {
    rthv::bench::export_fig6(cli.positional[0], "fig6a", "Fig. 6a -- monitoring disabled",
                             result);
  }
  rthv::bench::export_fig6_observability(result, cli.trace_out, cli.metrics_out);
  std::cout << "paper reference: direct ~40% (<=50us), delayed ~60% (uniform up to "
               "8000us), average ~2500us\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
