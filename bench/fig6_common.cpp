#include "fig6_common.hpp"

#include <ostream>
#include <stdexcept>

#include "core/analysis_facade.hpp"
#include "core/hypervisor_system.hpp"
#include "exp/batch_runner.hpp"
#include "exp/run_result.hpp"
#include "exp/seed.hpp"
#include "fault/fault_engine.hpp"
#include "fault/oracle.hpp"
#include "stats/export.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

namespace rthv::bench {

using sim::Duration;

namespace {

const obs::MetricsSnapshot::Histogram& latency_histogram(const Fig6Result& result) {
  const auto* h = result.merged.metrics.find_histogram("irq.latency.all");
  if (h == nullptr) throw std::logic_error("fig6: metrics carry no irq.latency.all");
  return *h;
}

/// Latency table cells (avg, p99, max) of one recorder; "-" when empty.
std::vector<std::string> latency_cells(const stats::Summary& s) {
  if (s.empty()) return {"-", "-", "-"};
  return {stats::Table::num(s.mean().as_us()), stats::Table::num(s.percentile(99).as_us()),
          stats::Table::num(s.max().as_us())};
}

}  // namespace

Fig6Result run_fig6(const Fig6Config& config) {
  auto base = core::SystemConfig::paper_baseline();
  // Single-core experiment: every partition and the measured source live on
  // core 0 (the PartitionSpec/IrqSourceSpec default), stated explicitly now
  // that configs carry core assignments.
  base.interconnect.num_cores = 1;
  for (auto& p : base.partitions) p.core = 0;
  for (auto& s : base.sources) s.core = 0;
  const Duration c_bh_eff = core::AnalysisFacade(base).effective_bottom_cost(0);
  // d_min fixed at the highest configured load's lambda.
  int max_load = 1;
  for (const int l : config.load_percent) max_load = std::max(max_load, l);
  const auto d_min = Duration::ns(c_bh_eff.count_ns() * 100 / max_load);

  if (config.monitored) {
    base.mode = hv::TopHandlerMode::kInterposing;
    base.sources[0].monitor = core::MonitorKind::kDeltaMin;
    base.sources[0].d_min = d_min;
  }
  // A fault plan is parsed once and shared (read-only) by all runs; each
  // run arms its own engine with a seed derived from the run index.
  fault::FaultPlan plan;
  if (!config.fault_plan.empty()) {
    plan = fault::load_fault_plan_file(config.fault_plan);
  }
  std::vector<fault::OracleReport> oracle_reports(config.load_percent.size());

  // All runs share one horizon: the fault plan's when set.
  const Duration horizon =
      !plan.empty() && plan.horizon.is_positive() ? plan.horizon : Duration::s(1000);

  // One independent run per load step. Each run's seed depends only on its
  // index (config.seed + i, the original sequential seed sequence), so the
  // merged result is bit-identical for any job count. Every run constructs
  // its own system: fault plans install per-system deadline transforms, and
  // three runs leave nothing for a pool to amortize.
  exp::BatchRunner runner(exp::BatchOptions{.jobs = config.jobs, .chunk = 1});
  auto runs = runner.map(config.load_percent.size(), [&](std::size_t i) {
    core::HypervisorSystem system(base);
    if ((config.trace && i == 0) || !plan.empty()) system.enable_tracing();
    const int load = config.load_percent[i];
    const auto lambda = Duration::ns(c_bh_eff.count_ns() * 100 / load);
    workload::ExponentialTraceGenerator gen(
        lambda, config.seed + i, config.enforce_floor ? d_min : Duration::zero());
    system.attach_trace(0, gen.generate(config.irqs_per_load));
    fault::FaultEngine engine(system, plan, exp::derive_seed(config.seed, i));
    if (!plan.empty()) engine.arm();
    system.run(horizon);
    if (!plan.empty()) {
      const fault::InterferenceOracle oracle(fault::InterferenceOracle::params_from(system));
      oracle_reports[i] = oracle.verify(system.trace());
    }
    return exp::RunResult::capture(system);
  });

  Fig6Result result;
  result.d_min = d_min;
  result.c_bh_eff = c_bh_eff;
  // Fold in load order: cumulative statistics match the sequential run.
  for (auto& run : runs) {
    result.per_load.push_back(run.recorder);
    result.merged.merge(std::move(run));
  }
  for (const auto& report : oracle_reports) {
    result.oracle_windows += report.windows_checked;
    result.oracle_violations +=
        report.violations.size() + report.cost_violations.size();
  }
  for (const auto& counter : result.merged.metrics.counters) {
    if (counter.name.starts_with("fault/injected/")) {
      result.fault_injected += counter.value;
    }
  }
  return result;
}

void print_fig6_report(std::ostream& os, const char* title, const Fig6Config& config,
                       const Fig6Result& result) {
  os << "=== " << title << " ===\n";
  os << "T_TDMA = 14000us, T_i = 6000us, C_TH = 5us, C_BH = 40us, C'_BH = "
     << result.c_bh_eff << ", d_min = " << result.d_min << "\n";
  os << "loads:";
  for (const int l : config.load_percent) os << " " << l << "%";
  os << ", " << config.irqs_per_load << " IRQs per load\n\n";

  stats::Table table({"U_IRQ", "direct", "interposed", "delayed", "avg [us]",
                      "p99 [us]", "max [us]"});
  const auto add_row = [&table](std::string label, const stats::LatencyRecorder& r) {
    std::vector<std::string> row{std::move(label)};
    for (const auto cls : {stats::HandlingClass::kDirect, stats::HandlingClass::kInterposed,
                           stats::HandlingClass::kDelayed}) {
      row.push_back(stats::Table::num(r.fraction(cls) * 100) + "%");
    }
    for (auto& cell : latency_cells(r.all())) row.push_back(std::move(cell));
    table.add_row(std::move(row));
  };
  for (std::size_t i = 0; i < result.per_load.size(); ++i) {
    add_row(std::to_string(config.load_percent[i]) + "%", result.per_load[i]);
  }
  const exp::RunResult& merged = result.merged;
  add_row("cumulative", merged.recorder);
  table.write(os);

  os << "\ncontext switches: tdma " << merged.tdma_switches << ", interpose "
     << merged.interpose_switches << ", deferred boundaries " << merged.deferred_switches
     << ", denied by monitor " << merged.denied_by_monitor << ", lost raises "
     << merged.lost_raises << "\n";
  if (result.fault_injected > 0 || result.oracle_windows > 0) {
    os << "fault injection: " << result.fault_injected
       << " actions; interference oracle checked " << result.oracle_windows
       << " windows, " << result.oracle_violations << " violations\n";
  }
  if (merged.recorder.total() == 0) {
    os << "\nlatency histogram: no completions\n\n";
    return;
  }
  os << "\nlatency histogram over " << merged.recorder.total() << " IRQs (100us bins):\n";
  stats::write_histogram_ascii(os, latency_histogram(result));
  os << "\n";
}

void export_fig6(const std::string& dir, const std::string& name, const char* title,
                 const Fig6Result& result) {
  const std::string csv = dir + "/" + name + ".csv";
  stats::write_histogram_csv(csv, latency_histogram(result));
  stats::write_histogram_gnuplot(dir + "/" + name + ".gp", csv, title);
}

void export_fig6_observability(const Fig6Result& result, const std::string& trace_out,
                               const std::string& metrics_out) {
  if (!trace_out.empty()) {
    stats::write_chrome_trace_file(trace_out, result.merged.trace, result.merged.trace_meta,
                                   result.merged.trace_dropped);
  }
  if (!metrics_out.empty()) {
    if (metrics_out.ends_with(".txt")) {
      stats::write_metrics_text_file(metrics_out, result.merged.metrics);
    } else {
      stats::write_metrics_json_file(metrics_out, result.merged.metrics);
    }
  }
}

}  // namespace rthv::bench
