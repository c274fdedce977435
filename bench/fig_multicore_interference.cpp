// Multi-core interference sweep: how much hard-RT interrupt latency is lost
// to shared-interconnect contention, and how much of it cache coloring and
// MemGuard-style bandwidth regulation win back.
//
// One fixed scenario: core 0 hosts an application partition plus the hard-RT
// subscriber of a monitored, interposing IRQ source (the paper-baseline
// source, bh_accesses = 2000); every additional core runs a best-effort
// partition hammering the interconnect. Three sweeps:
//
//  1. Core count: 1..4 hog-loaded cores, uncolored and unregulated -- the
//     raw cost of sharing the interconnect. Guest demand is accounted at
//     preemption points, so an unregulated hog dumps slot-sized bursts that
//     already saturate the conflict ratio: the big step is 1 -> 2 cores, and
//     extra hogs add little. Coloring and regulation are what win it back.
//  2. Cache coloring: 4 cores, RT pair colored into / away from the hogs'
//     color set.
//  3. Bandwidth regulation: 4 cores, overlapping colors, sweeping the hogs'
//     per-window budget -- regulation must tighten the hard-RT tail
//     monotonically as the budget shrinks.
//
// Each row additionally replays the run's trace through the interference
// oracle with contention folded into Eq. 14 (non-zero exit on violation).
// Rows are independent simulations sharded over --jobs threads; row seeds
// are fixed, so output is bit-identical for any job count.
//
// usage: fig_multicore_interference [--jobs N]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "core/multicore_system.hpp"
#include "core/system_config.hpp"
#include "exp/batch_runner.hpp"
#include "exp/cli.hpp"
#include "fault/oracle.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;

namespace {

constexpr std::size_t kIrqs = 2000;
constexpr std::uint64_t kSeed = 2014;

/// Core 0: app + hard-RT subscriber; cores 1..n-1: one hog each.
core::SystemConfig scenario(std::uint32_t cores, std::uint32_t rt_mask,
                            std::uint32_t hog_mask, std::uint64_t hog_budget) {
  core::SystemConfig cfg;
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.interconnect.num_cores = cores;
  cfg.interconnect.num_colors = 16;
  // 40 ns of extra DRAM/LLC cost per access under full saturation; with the
  // hogs' 10 accesses/us (1000 per 100 us epoch) pressure stays well below
  // saturation, so core count and budgets move the charge visibly.
  cfg.interconnect.conflict_access_ns = 40;
  cfg.interconnect.half_load_accesses = 2000;
  if (hog_budget > 0) {
    cfg.interconnect.budgets.assign(cores, hw::CoreBandwidthBudget{});
    for (std::uint32_t c = 1; c < cores; ++c) {
      cfg.interconnect.budgets[c] = {hog_budget, Duration::us(100)};
    }
  }

  core::PartitionSpec app;
  app.name = "app";
  app.slot_length = Duration::us(6000);
  app.core = 0;
  app.color_mask = rt_mask;
  cfg.partitions.push_back(app);

  core::PartitionSpec rt;
  rt.name = "hard-rt";
  rt.slot_length = Duration::us(6000);
  rt.core = 0;
  rt.color_mask = rt_mask;
  cfg.partitions.push_back(rt);

  for (std::uint32_t c = 1; c < cores; ++c) {
    core::PartitionSpec hog;
    hog.name = "hog" + std::to_string(c);
    hog.slot_length = Duration::us(6000);
    hog.core = c;
    hog.color_mask = hog_mask;
    hog.mem_accesses_per_us = 10;
    cfg.partitions.push_back(hog);
  }

  core::IrqSourceSpec src;
  src.name = "rt-irq";
  src.subscriber = 1;
  src.core = 0;
  src.c_top = Duration::us(5);
  src.c_bottom = Duration::us(40);
  src.monitor = core::MonitorKind::kDeltaMin;
  src.d_min = Duration::us(1444);
  src.bh_accesses = 2000;
  cfg.sources.push_back(src);
  return cfg;
}

struct RowOut {
  Duration avg;
  Duration p99;
  Duration max;
  std::uint64_t stall_ns;
  std::uint64_t charges;
  std::int64_t charge_ns;
  std::uint64_t oracle_violations;
};

// Every row within a sweep replays the SAME seed: the arrival sequence is
// identical across rows, so any latency difference is contention-induced.
RowOut run(const core::SystemConfig& cfg) {
  core::MulticoreSystem mc(cfg);
  mc.enable_tracing();
  workload::ExponentialTraceGenerator gen(Duration::us(1444), kSeed,
                                          Duration::us(200));
  mc.attach_trace(0, gen.generate(kIrqs));
  mc.run(Duration::s(600));

  const fault::InterferenceOracle oracle(
      fault::InterferenceOracle::params_from(mc.core(0)));
  const auto report = oracle.verify(mc.core(0).trace());
  const auto& rec = mc.core(0).recorder().all();
  return RowOut{rec.mean(), rec.percentile(99), rec.max(),
                mc.interconnect().counters().stall_ns_total,
                report.contention_charges, report.total_charge_ns,
                report.violations.size() + report.cost_violations.size()};
}

std::vector<std::string> row(const std::string& label, const RowOut& r) {
  const std::int64_t avg_charge =
      r.charges == 0 ? 0 : r.charge_ns / static_cast<std::int64_t>(r.charges);
  return {label,
          stats::Table::num(r.avg.as_us()),
          stats::Table::num(r.p99.as_us()),
          stats::Table::num(r.max.as_us()),
          std::to_string(r.stall_ns / 1000),
          std::to_string(avg_charge),
          std::to_string(r.oracle_violations)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = exp::parse_cli(argc, argv);
  exp::BatchRunner runner(exp::BatchOptions{.jobs = cli.jobs, .chunk = 1});
  std::uint64_t violations = 0;
  const std::vector<std::string> header = {"config",   "avg [us]",  "p99 [us]",
                                           "max [us]", "stall [us]",
                                           "avg charge [ns]", "oracle"};

  std::cout << "=== fig_multicore_interference: hard-RT source on core 0, "
            << kIrqs << " IRQs per row ===\n\n";

  // Sweep 1: core count, uncolored, unregulated.
  {
    std::vector<core::SystemConfig> cfgs;
    for (std::uint32_t cores = 1; cores <= 4; ++cores) {
      cfgs.push_back(scenario(cores, 0x00FFu, 0x00FFu, 0));
    }
    const auto rows = runner.map(cfgs.size(), [&](std::size_t i) {
      return run(cfgs[i]);
    });
    stats::Table table(header);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      table.add_row(row(std::to_string(i + 1) + " cores", rows[i]));
      violations += rows[i].oracle_violations;
    }
    std::cout << "-- interconnect sharing cost (no coloring, no regulation)\n";
    table.write(std::cout);
    std::cout << "\n";
  }

  // Sweep 2: coloring on/off at 4 cores.
  {
    const std::vector<std::pair<std::string, core::SystemConfig>> cases = {
        {"overlapping colors", scenario(4, 0x00FFu, 0x00FFu, 0)},
        {"RT colored away", scenario(4, 0x000Fu, 0xFFF0u, 0)},
    };
    const auto rows = runner.map(cases.size(), [&](std::size_t i) {
      return run(cases[i].second);
    });
    stats::Table table(header);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      table.add_row(row(cases[i].first, rows[i]));
      violations += rows[i].oracle_violations;
    }
    std::cout << "-- cache coloring (4 cores)\n";
    table.write(std::cout);
    std::cout << "\n";
  }

  // Sweep 3: hog bandwidth budget at 4 cores, overlapping colors.
  {
    const std::vector<std::uint64_t> budgets = {0, 800, 600, 400, 200};
    const auto rows = runner.map(budgets.size(), [&](std::size_t i) {
      return run(scenario(4, 0x00FFu, 0x00FFu, budgets[i]));
    });
    stats::Table table(header);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string label = budgets[i] == 0
                                    ? "unregulated"
                                    : "budget " + std::to_string(budgets[i]) +
                                          "/100us";
      table.add_row(row(label, rows[i]));
      violations += rows[i].oracle_violations;
    }
    std::cout << "-- hog bandwidth regulation (4 cores, overlapping colors)\n";
    table.write(std::cout);
    std::cout << "\n";
  }

  if (violations > 0) {
    std::cerr << "interference oracle reported " << violations
              << " violation(s)\n";
    return 1;
  }
  std::cout << "interference oracle: all rows clean (contention folded into "
               "Eq. 14)\n";
  return 0;
}
