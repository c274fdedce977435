#include "exp/run_result.hpp"

#include <utility>

#include "core/hypervisor_system.hpp"

namespace rthv::exp {

RunResult RunResult::capture(const core::HypervisorSystem& system) {
  RunResult out;
  out.recorder = system.recorder();
  out.completed = system.completed_bottom_handlers();
  const auto& ctx = system.hypervisor().context_switches();
  out.tdma_switches = ctx.tdma;
  out.interpose_switches = ctx.interpose_enter + ctx.interpose_return;
  const auto& irq = system.hypervisor().irq_stats();
  out.deferred_switches = irq.deferred_slot_switches;
  out.denied_by_monitor = irq.denied_by_monitor;
  out.lost_raises = system.platform().intc().lost_raises();
  out.metrics = system.metrics_snapshot();
  out.trace = system.trace();
  if (!out.trace.empty()) out.trace_meta = system.trace_meta();
  out.trace_dropped = system.trace_dropped();
  return out;
}

void RunResult::merge(RunResult&& other) {
  recorder.merge(other.recorder);
  completed += other.completed;
  tdma_switches += other.tdma_switches;
  interpose_switches += other.interpose_switches;
  deferred_switches += other.deferred_switches;
  denied_by_monitor += other.denied_by_monitor;
  lost_raises += other.lost_raises;
  metrics.merge(other.metrics);
  trace.insert(trace.end(), other.trace.begin(), other.trace.end());
  if (trace_meta.partition_names.empty()) trace_meta = std::move(other.trace_meta);
  trace_dropped += other.trace_dropped;
}

}  // namespace rthv::exp
