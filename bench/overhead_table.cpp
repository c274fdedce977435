// Reproduces the Section 6.2 table: memory and runtime overhead of the
// interposed interrupt handling.
//
// Paper (ARM926ej-s, gcc -O1):
//   code:   whole implementation 1120 B = scheduler modification 392 B
//           + modified top handler 456 B + monitoring function 272 B
//   data:   28 B (monitoring scheme state)
//   runtime: C_Mon = 128 instructions, C_sched = 877 instructions,
//            context switch ~5000 instructions + ~5000 cycles writeback;
//            ~10 % more context switches in scenario 2 with d_min = lambda.
//
// On the simulated platform the *runtime* budgets are the model inputs and
// are reported back together with the measured per-category cycle totals of
// a scenario-2 run; static ARM code size is not reproducible on a simulator
// (see EXPERIMENTS.md), so the code-size rows report the paper's reference
// values alongside the size of this implementation's state objects.
#include <iostream>

#include "core/analysis_facade.hpp"
#include "core/hypervisor_system.hpp"
#include "mon/learning_monitor.hpp"
#include "mon/monitor.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;

namespace {

struct RunStats {
  std::uint64_t ctx_switches;
  std::uint64_t monitor_cycles;
  std::uint64_t sched_cycles;
  std::uint64_t ctx_cycles;
  std::uint64_t writeback_cycles;
  std::uint64_t monitor_checks;
};

RunStats run_scenario(bool monitored, Duration lambda, Duration d_min,
                      std::size_t irqs) {
  auto cfg = core::SystemConfig::paper_baseline();
  if (monitored) {
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
    cfg.sources[0].d_min = d_min;
  }
  core::HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(lambda, 62u);
  system.attach_trace(0, gen.generate(irqs));
  system.run(Duration::s(300));
  const auto& cpu = system.platform().cpu();
  return RunStats{
      system.hypervisor().context_switches().total(),
      cpu.cycles_in(hw::WorkCategory::kMonitor),
      cpu.cycles_in(hw::WorkCategory::kSchedManipulation),
      cpu.cycles_in(hw::WorkCategory::kContextSwitch),
      cpu.cycles_in(hw::WorkCategory::kCacheWriteback),
      system.hypervisor().irq_stats().monitor_checked,
  };
}

}  // namespace

int main() {
  const auto cfg = core::SystemConfig::paper_baseline();
  const core::AnalysisFacade facade(cfg);
  const auto oh = facade.overhead_times();
  const Duration c_bh_eff = facade.effective_bottom_cost(0);  // C_BH = 40us

  std::cout << "=== Section 6.2 -- memory and runtime overhead ===\n\n";

  stats::Table code({"component", "paper (ARM, gcc -O1)", "this implementation"});
  code.add_row({"TDMA scheduler modification", "392 B code", "see src/hv/tdma_scheduler.*"});
  code.add_row({"modified top handler (Fig. 4b)", "456 B code", "see src/hv/hypervisor.cpp"});
  code.add_row({"monitoring function", "272 B code", "see src/mon/monitor.*"});
  code.add_row({"total", "1120 B code", "n/a on simulator (host binary)"});
  // The l = 1 monitor: its object plus the heap payload of its window, one
  // tracebuffer stamp and one d_min.
  code.add_row({"monitor data overhead", "28 B",
                "sizeof(DeltaVectorMonitor) = " +
                    std::to_string(sizeof(mon::DeltaVectorMonitor)) + " B (host) + " +
                    std::to_string(sizeof(sim::TimePoint)) + " B stamp, " +
                    std::to_string(sizeof(sim::Duration)) + " B d_min"});
  code.write(std::cout);

  std::cout << "\nruntime budgets (model inputs, 200 MHz / 5 ns per cycle):\n";
  stats::Table runtime({"overhead", "paper", "modelled time"});
  runtime.add_row({"C_Mon (monitoring function)", "128 instructions", oh.c_mon.to_string()});
  runtime.add_row({"C_sched (scheduler manipulation)", "877 instructions", oh.c_sched.to_string()});
  runtime.add_row({"context switch (invalidate + writeback)",
                   "~5000 instr + ~5000 cycles", oh.c_ctx.to_string()});
  runtime.add_row({"C'_BH (Eq. 13, C_BH = 40us)", "-", c_bh_eff.to_string()});
  runtime.add_row({"C'_TH (Eq. 15, C_TH = 5us)", "-",
                   analysis::effective_top_cost(cfg.sources[0].c_top, oh).to_string()});
  runtime.write(std::cout);

  // Scenario-2 runs with d_min = lambda: context-switch increase per load.
  // The increase scales with the interposition rate, i.e. with the IRQ
  // load; the paper's ~10 % corresponds to the low-load end of the sweep
  // (every interposition costs two additional switches, Eq. 13, against a
  // fixed 3-switches-per-cycle TDMA baseline).
  constexpr std::size_t kIrqs = 5000;
  std::cout << "\nmeasured scenario-2 context-switch increase (d_min = lambda, " << kIrqs
            << " IRQs per load):\n";
  stats::Table increase_table(
      {"U_IRQ", "ctx switches unmon", "ctx switches mon", "increase", "paper"});
  RunStats mon_hi{};  // keep the 10% run for the cycle breakdown below
  RunStats unmon_hi{};
  for (const int load : {1, 5, 10}) {
    const auto lambda = Duration::ns(c_bh_eff.count_ns() * 100 / load);
    const auto unmon = run_scenario(false, lambda, lambda, kIrqs);
    const auto mon = run_scenario(true, lambda, lambda, kIrqs);
    const double increase =
        (static_cast<double>(mon.ctx_switches) / static_cast<double>(unmon.ctx_switches) -
         1.0) * 100.0;
    increase_table.add_row({std::to_string(load) + "%",
                            std::to_string(unmon.ctx_switches),
                            std::to_string(mon.ctx_switches),
                            stats::Table::num(increase) + "%",
                            load == 1 ? "~10%" : "-"});
    if (load == 10) {
      mon_hi = mon;
      unmon_hi = unmon;
    }
  }
  increase_table.write(std::cout);

  std::cout << "\ncycle breakdown of the 10% run:\n";
  stats::Table measured({"quantity", "unmonitored", "monitored", "paper"});
  measured.add_row({"monitor checks (C_Mon paid)", "0",
                    std::to_string(mon_hi.monitor_checks), "-"});
  measured.add_row({"monitor cycles", std::to_string(unmon_hi.monitor_cycles),
                    std::to_string(mon_hi.monitor_cycles), "128/check"});
  measured.add_row({"sched-manipulation cycles", std::to_string(unmon_hi.sched_cycles),
                    std::to_string(mon_hi.sched_cycles), "877/interpose + tick"});
  measured.add_row({"context-switch cycles", std::to_string(unmon_hi.ctx_cycles),
                    std::to_string(mon_hi.ctx_cycles), "5000/switch"});
  measured.add_row({"cache-writeback cycles", std::to_string(unmon_hi.writeback_cycles),
                    std::to_string(mon_hi.writeback_cycles), "5000/switch"});
  measured.write(std::cout);
  return 0;
}
