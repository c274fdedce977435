// The one bound provider: turns a SystemConfig source into the constants and
// bounds of Sections 4-5 (C'_BH, the interposition pre-cost, the admission
// curve behind I(dt), the TDMA model of the schedule the hypervisor runs,
// Eq. 11/12 delayed vs. Eq. 16 interposed). The oracle, the bench programs, the
// examples and the analysis tests all read their bounds from here.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "analysis/irq_latency.hpp"
#include "core/system_config.hpp"
#include "hv/overhead_model.hpp"

namespace rthv::core {

struct WcrtComparison {
  std::optional<analysis::ResponseTimeResult> tdma_delayed;  // Eq. 11/12
  std::optional<analysis::ResponseTimeResult> interposed;    // Eq. 16
};

using Activation = std::shared_ptr<const analysis::MinDistanceFunction>;

class AnalysisFacade {
 public:
  explicit AnalysisFacade(const SystemConfig& config);

  /// Overhead constants converted to time on the configured platform.
  [[nodiscard]] analysis::OverheadTimes overhead_times() const { return overheads_.times(); }

  /// Eq. 13: C'_BH of a source.
  [[nodiscard]] sim::Duration effective_bottom_cost(std::uint32_t source_index) const;

  /// C_sched + C_ctx: what an admitted interposition spends before its
  /// bottom handler starts.
  [[nodiscard]] sim::Duration interposition_pre_cost() const {
    return overheads_.sched_manipulation_cost() + overheads_.context_switch_cost();
  }

  /// I(dt): the interference the source's interposed handling may impose on
  /// another partition within dt, from its monitor's admission curve (Eq. 14,
  /// the delta^- vector, token bucket, window count). No curve for kNone,
  /// kLearning or a delta^- condition whose first entry is not positive.
  [[nodiscard]] std::optional<sim::Duration> interference(std::uint32_t source_index,
                                                          sim::Duration dt) const;

  /// TDMA model of the schedule the hypervisor runs, as seen by a source:
  /// T_i is the subscriber's total slot time per cycle and the slot-entry
  /// overhead is paid once per owned slot. Throws std::invalid_argument
  /// when the subscriber owns no slot time.
  [[nodiscard]] analysis::TdmaModel tdma_model(std::uint32_t source_index) const;

  /// Runs both analyses for a source whose activations follow `activation`;
  /// `monitoring_active` controls whether the delayed analysis charges
  /// C_Mon on the top handler (scenario 2 of Section 5.1). With
  /// `activations` empty no other source interferes; otherwise it holds one
  /// activation model per source in source order (the analyzed index is
  /// skipped) and every other source's top handler interferes (Eq. 9).
  /// Throws std::invalid_argument for any other length.
  [[nodiscard]] WcrtComparison compare(std::uint32_t source_index, Activation activation,
                                       bool monitoring_active,
                                       const std::vector<Activation>& activations = {}) const;

 private:
  [[nodiscard]] const IrqSourceSpec& source(std::uint32_t source_index) const;

  SystemConfig config_;
  hv::OverheadModel overheads_;
};

}  // namespace rthv::core
