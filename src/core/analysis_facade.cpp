#include "core/analysis_facade.hpp"

#include <stdexcept>
#include <string>

#include "hw/cpu_model.hpp"
#include "hw/memory_system.hpp"

namespace rthv::core {

using sim::Duration;

AnalysisFacade::AnalysisFacade(const SystemConfig& config)
    : config_(config),
      overheads_(hw::CpuModel(config.platform.cpu_freq_hz, config.platform.cpi_milli),
                 hw::MemorySystem(config.platform.ctx_invalidate_instructions,
                                  config.platform.ctx_writeback_cycles),
                 config.overheads) {}

const IrqSourceSpec& AnalysisFacade::source(std::uint32_t source_index) const {
  if (source_index >= config_.sources.size()) {
    throw std::invalid_argument("AnalysisFacade: source index out of range");
  }
  return config_.sources[source_index];
}

Duration AnalysisFacade::effective_bottom_cost(std::uint32_t source_index) const {
  return analysis::effective_bottom_cost(source(source_index).c_bottom, overhead_times());
}

std::optional<Duration> AnalysisFacade::interference(std::uint32_t source_index,
                                                     Duration dt) const {
  const auto& src = source(source_index);
  const Duration c_bh_eff = effective_bottom_cost(source_index);
  switch (src.monitor) {
    case MonitorKind::kDeltaMin:
    case MonitorKind::kDeltaVector: {
      const auto deltas = src.enforced_deltas();
      if (deltas.empty() || !deltas[0].is_positive()) return std::nullopt;
      if (src.monitor == MonitorKind::kDeltaMin) {
        return analysis::interposed_interference(dt, deltas[0], c_bh_eff);
      }
      return analysis::interposed_interference(dt, analysis::VectorModel(deltas), c_bh_eff);
    }
    case MonitorKind::kTokenBucket:
      return analysis::token_bucket_interference(dt, src.d_min, src.bucket_depth, c_bh_eff);
    case MonitorKind::kWindowCount:
      return analysis::window_count_interference(dt, src.d_min, src.window_events, c_bh_eff);
    case MonitorKind::kNone:
    case MonitorKind::kLearning:
      break;
  }
  return std::nullopt;
}

analysis::TdmaModel AnalysisFacade::tdma_model(std::uint32_t source_index) const {
  const std::uint32_t subscriber = source(source_index).subscriber;
  const Duration entry = overheads_.tdma_tick_cost() + overheads_.context_switch_cost();
  analysis::TdmaModel tdma{config_.tdma_cycle(), Duration::zero(), Duration::zero()};
  for (const auto& s : config_.tdma_slots()) {
    if (s.partition != subscriber) continue;
    tdma.slot += s.length;
    tdma.entry_overhead += entry;
  }
  if (!tdma.slot.is_positive()) {
    throw std::invalid_argument("tdma_model: subscriber partition " +
                                std::to_string(subscriber) + " owns no TDMA slot");
  }
  return tdma;
}

WcrtComparison AnalysisFacade::compare(std::uint32_t source_index, Activation activation,
                                       bool monitoring_active,
                                       const std::vector<Activation>& activations) const {
  const auto& src = source(source_index);
  if (!activations.empty() && activations.size() != config_.sources.size()) {
    throw std::invalid_argument("AnalysisFacade::compare: need one activation model per source (" +
                                std::to_string(config_.sources.size()) + ")");
  }
  std::vector<analysis::IrqSourceModel> others;
  for (std::uint32_t i = 0; i < activations.size(); ++i) {
    if (i == source_index) continue;
    others.push_back({activations[i], config_.sources[i].c_top, config_.sources[i].c_bottom});
  }
  const analysis::IrqSourceModel own{std::move(activation), src.c_top, src.c_bottom};
  return {analysis::tdma_latency(own, others, tdma_model(source_index), overhead_times(),
                                 monitoring_active),
          analysis::interposed_latency(own, others, overhead_times())};
}

}  // namespace rthv::core
