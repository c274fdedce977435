// Interposition vs UINTC-style direct delivery, Fig. 6 setup.
//
// Runs the monitored Fig. 6b configuration twice over identical activation
// traces (same seeds, same loads): once with the paper's interposing top
// handler, once with hardware direct delivery enabled for the monitored
// source, where the interrupt controller vectors the IRQ straight to the
// subscriber after the configured hardware cost and the delta^- monitor
// runs as a decision-free shadow. The report compares latency distributions
// side by side: the interposition path pays top-half + decision + context
// interposition on every admitted IRQ, while the direct path collapses this
// to the hardware delivery cost -- the "sub-microsecond IRQ" claim in
// numbers.
//
// usage: fig6_direct_compare [--jobs N] [export-dir]
#include <exception>
#include <iostream>

#include "exp/cli.hpp"
#include "fig6_common.hpp"
#include "stats/table.hpp"

namespace {

using rthv::stats::HandlingClass;
using rthv::stats::Table;

double us(rthv::sim::Duration d) { return static_cast<double>(d.count_ns()) / 1e3; }

void append_rows(Table& table, const char* label, const rthv::bench::Fig6Result& r) {
  const auto& all = r.merged.recorder.all();
  table.add_row({label, Table::num(us(all.mean())), Table::num(us(all.median())),
                 Table::num(us(all.percentile(99.0))), Table::num(us(all.max())),
                 std::to_string(r.merged.tdma_switches + r.merged.interpose_switches +
                                r.merged.deferred_switches)});
}

}  // namespace

// Any failure after argument parsing (an unreadable fault plan, an export
// path that cannot be written) is reported as "error: ..." with exit 1.
int main(int argc, char** argv) try {
  const auto cli = rthv::exp::parse_cli(argc, argv);

  rthv::bench::Fig6Config interpose;
  interpose.monitored = true;
  interpose.jobs = cli.jobs;

  rthv::bench::Fig6Config direct = interpose;
  direct.direct = true;

  const auto r_interpose = rthv::bench::run_fig6(interpose);
  const auto r_direct = rthv::bench::run_fig6(direct);

  std::cout << "=== interposition vs UINTC-style direct delivery (Fig. 6 setup) ===\n";
  std::cout << "identical exponential traces, loads 1/5/10 %, d_min = "
            << Table::num(us(r_interpose.d_min)) << " us\n\n";

  Table table({"variant", "avg [us]", "p50 [us]", "p99 [us]", "max [us]", "switches"});
  append_rows(table, "interposition", r_interpose);
  append_rows(table, "direct", r_direct);
  table.write(std::cout);

  std::cout << "\nhandling-class split:\n";
  std::cout << "  interposition: ";
  r_interpose.merged.recorder.write_summary(std::cout);
  std::cout << "  direct:        ";
  r_direct.merged.recorder.write_summary(std::cout);

  // The headline number: what the hardware path does to the latency of the
  // IRQs that interposition would have admitted into a foreign slot.
  const auto hw = r_direct.merged.recorder.of(HandlingClass::kDirectHw);
  const auto inter = r_interpose.merged.recorder.of(HandlingClass::kInterposed);
  if (hw.count() > 0 && inter.count() > 0) {
    std::cout << "\ndirect-delivery latency (hw path):   avg "
              << Table::num(us(hw.mean())) << " us, max " << Table::num(us(hw.max()))
              << " us over " << hw.count() << " IRQs\n";
    std::cout << "interposed latency (hv path):        avg "
              << Table::num(us(inter.mean())) << " us, max "
              << Table::num(us(inter.max())) << " us over " << inter.count()
              << " IRQs\n";
    std::cout << "avg improvement, direct over interposed: "
              << Table::num(static_cast<double>(inter.mean().count_ns()) /
                            static_cast<double>(hw.mean().count_ns()))
              << "x\n";
  }

  if (!cli.positional.empty()) {
    rthv::bench::export_fig6(cli.positional[0], "fig6_interpose",
                             "interposition (Fig. 6b)", r_interpose);
    rthv::bench::export_fig6(cli.positional[0], "fig6_direct",
                             "UINTC-style direct delivery", r_direct);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
