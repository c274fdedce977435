// Analysis-vs-simulation validation of the worst-case latency bounds
// (Sections 4 and 5.1).
//
// For a sweep of sporadic activation models (d_min), computes
//  * the TDMA-delayed worst case (Eqs. 6-12, with and without C_Mon), and
//  * the interposed worst case (Eqs. 13-16),
// then measures the observed maxima on conforming simulated runs. The
// simulated maximum must never exceed the analytic bound, and the
// interposed bound must be independent of the TDMA cycle length.
#include <iostream>

#include "core/analysis_facade.hpp"
#include "core/hypervisor_system.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;

namespace {

struct Row {
  Duration d_min;
  Duration delayed_bound;
  Duration delayed_sim_max;
  Duration interposed_bound;
  Duration interposed_sim_max;
};

struct SimMax {
  Duration overall;     // max over every completion
  Duration interposed;  // max over the interposed-handled class only
};

SimMax simulate_max(const core::SystemConfig& cfg, Duration d_min, std::uint64_t seed,
                    std::size_t irqs) {
  core::HypervisorSystem system(cfg);
  system.keep_completions(true);
  workload::ExponentialTraceGenerator gen(d_min, seed, /*floor=*/d_min);
  system.attach_trace(0, gen.generate(irqs));
  system.run(Duration::s(600));
  SimMax out{Duration::zero(), Duration::zero()};
  for (const auto& rec : system.completions()) {
    out.overall = std::max(out.overall, rec.latency());
    if (rec.handling == stats::HandlingClass::kInterposed) {
      out.interposed = std::max(out.interposed, rec.latency());
    }
  }
  return out;
}

}  // namespace

int main() {
  constexpr std::size_t kIrqs = 1200;
  const auto base = core::SystemConfig::paper_baseline();
  const core::AnalysisFacade facade(base);

  std::cout << "=== Worst-case latency: analysis (Eqs. 11/12 vs 16) vs simulation ===\n\n";
  stats::Table table({"d_min [us]", "delayed bound [us]", "delayed sim max [us]",
                      "interposed bound [us]", "interposed sim max [us]", "bound holds"});

  for (const std::int64_t d_us : {1444, 2000, 4000, 8000, 16000}) {
    Row row;
    row.d_min = Duration::us(d_us);
    const auto activation = analysis::make_sporadic(row.d_min);

    const auto delayed = facade.compare(0, activation, false).tdma_delayed;
    // Bound for non-interposed events of the *monitored* run: violating or
    // engine-denied events still pay C_Mon in the top handler (Eq. 15).
    const auto [delayed_mon, interposed] = facade.compare(0, activation, true);
    row.delayed_bound = delayed ? delayed->worst_case : Duration::zero();
    row.interposed_bound = interposed ? interposed->worst_case : Duration::zero();

    row.delayed_sim_max =
        simulate_max(base, row.d_min, 81u + static_cast<std::uint64_t>(d_us), kIrqs)
            .overall;

    auto mon_cfg = base;
    mon_cfg.mode = hv::TopHandlerMode::kInterposing;
    mon_cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
    mon_cfg.sources[0].d_min = row.d_min;
    const auto mon_max =
        simulate_max(mon_cfg, row.d_min, 82u + static_cast<std::uint64_t>(d_us), kIrqs);
    row.interposed_sim_max = mon_max.interposed;

    // Eq. 16 bounds the interposed-handled class; everything else (e.g. an
    // event whose top handler straddles its own slot's end) stays within
    // the monitored delayed bound.
    const sim::Duration delayed_mon_bound =
        delayed_mon ? delayed_mon->worst_case : Duration::zero();
    const bool holds = row.delayed_sim_max <= row.delayed_bound &&
                       row.interposed_sim_max <= row.interposed_bound &&
                       mon_max.overall <= std::max(delayed_mon_bound,
                                                   row.interposed_bound);
    table.add_row({stats::Table::num(row.d_min.as_us(), 0),
                   stats::Table::num(row.delayed_bound.as_us()),
                   stats::Table::num(row.delayed_sim_max.as_us()),
                   stats::Table::num(row.interposed_bound.as_us()),
                   stats::Table::num(row.interposed_sim_max.as_us()),
                   holds ? "yes" : "NO"});
  }
  table.write(std::cout);

  // TDMA-cycle independence of the interposed bound (Section 5.1, obs. 2).
  std::cout << "\ninterposed bound vs TDMA cycle length (d_min = 1444us):\n";
  stats::Table indep({"TDMA cycle [us]", "delayed bound [us]", "interposed bound [us]"});
  for (const int scale : {1, 2, 4}) {
    auto cfg = base;
    for (auto& p : cfg.partitions) p.slot_length = p.slot_length * scale;
    const auto [delayed, interposed] =
        core::AnalysisFacade(cfg).compare(0, analysis::make_sporadic(Duration::us(1444)), true);
    indep.add_row({stats::Table::num(cfg.tdma_cycle().as_us(), 0),
                   stats::Table::num(delayed ? delayed->worst_case.as_us() : 0.0),
                   stats::Table::num(interposed ? interposed->worst_case.as_us() : 0.0)});
  }
  indep.write(std::cout);
  std::cout << "\npaper reference: interposed worst case is independent of the TDMA "
               "cycle; delayed worst case grows with it\n";
  return 0;
}
