// Worst-case IRQ latency analyses of the paper (Sections 4 and 5.1).
//
// Two schemes are analyzed for a given IRQ source i:
//
//  * TDMA-delayed handling (Eq. 11):
//      W(q) = q*C_BHi + eta_i(W)*C_THi + ceil(W/T_TDMA)*(T_TDMA - T_i)
//             + sum_j eta_j(W)*C_THj
//    The bottom handler only runs in the subscriber's slot, so all other
//    partitions' slots appear as TDMA blocking (Eq. 8).
//
//  * Interposed handling under a satisfied monitoring condition (Eq. 16):
//      W(q) = q*C'_BHi + eta_i(W)*C'_THi + sum_j eta_j(W)*C_THj
//    with C'_BHi = C_BHi + C_sched + 2*C_ctx (Eq. 13) and
//    C'_THi = C_THi + C_Mon (Eq. 15). The TDMA term disappears.
//
// In both cases R = max_q (W(q) - delta_i^-(q)) (Eqs. 5 / 12).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/busy_window.hpp"
#include "analysis/min_distance.hpp"
#include "sim/time.hpp"

namespace rthv::analysis {

/// Model of one IRQ source for the analysis.
struct IrqSourceModel {
  std::shared_ptr<const MinDistanceFunction> activation;  // delta_i^-
  sim::Duration c_top;     // C_THi
  sim::Duration c_bottom;  // C_BHi (unused for pure interferers)
};

/// TDMA schedule as seen by one IRQ source.
struct TdmaModel {
  sim::Duration cycle;  // T_TDMA
  sim::Duration slot;   // T_i -- slot of the subscriber partition
  /// Slot-entry cost (scheduler tick + context switch) spent inside the
  /// subscriber's slot before any bottom handler can run. Eq. 8's blocking
  /// term "includes context switch overhead"; modelling it explicitly keeps
  /// the analysis an upper bound of the implementation.
  sim::Duration entry_overhead = sim::Duration::zero();
};

/// Hypervisor overhead constants (Section 5 / 6.2), already in time units.
struct OverheadTimes {
  sim::Duration c_mon;    // monitoring function WCET (C_Mon)
  sim::Duration c_sched;  // scheduler manipulation (C_sched)
  sim::Duration c_ctx;    // one context switch (C_ctx)
};

/// Eq. 13: effective bottom-handler cost of an interposed interrupt.
[[nodiscard]] sim::Duration effective_bottom_cost(sim::Duration c_bottom,
                                                  const OverheadTimes& oh);

/// Eq. 15: effective top-handler cost with monitoring.
[[nodiscard]] sim::Duration effective_top_cost(sim::Duration c_top,
                                               const OverheadTimes& oh);

/// Eq. 8: worst-case TDMA blocking in a window dt for a slot of length
/// `slot` within a cycle of length `cycle` (includes context-switch
/// overhead inside the foreign slots by construction).
[[nodiscard]] sim::Duration tdma_interference(sim::Duration dt, const TdmaModel& tdma);

/// Eq. 14: worst-case interference interposed handling of a source with
/// monitor distance d_min imposes on any other partition within dt.
[[nodiscard]] sim::Duration interposed_interference(sim::Duration dt,
                                                    sim::Duration d_min,
                                                    sim::Duration effective_bottom);

/// Generalization of Eq. 14 for a full delta^-[l] monitoring condition: the
/// admitted stream is bounded by the vector's arrival curve.
[[nodiscard]] sim::Duration interposed_interference(sim::Duration dt,
                                                    const MinDistanceFunction& monitor_delta,
                                                    sim::Duration effective_bottom);

/// Token-bucket analogue of Eq. 14: (depth + ceil(dt / fill_interval)) * C'_BH.
[[nodiscard]] sim::Duration token_bucket_interference(sim::Duration dt,
                                                      sim::Duration fill_interval,
                                                      std::uint32_t depth,
                                                      sim::Duration effective_bottom);

/// Window-count analogue of Eq. 14 (a burst can straddle each window
/// boundary): (ceil(dt / window) + 1) * max_events * C'_BH.
[[nodiscard]] sim::Duration window_count_interference(sim::Duration dt, sim::Duration window,
                                                      std::uint32_t max_events,
                                                      sim::Duration effective_bottom);

/// Worst-case latency of the analyzed source under classic TDMA-delayed
/// handling (Eqs. 6-12). `others` contribute top-handler load only.
/// `monitoring_active` adds C_Mon to the analyzed source's top handler
/// (scenario 2 of Section 5.1: violating IRQs are delayed but still pay the
/// monitor check).
[[nodiscard]] std::optional<ResponseTimeResult> tdma_latency(
    const IrqSourceModel& own, const std::vector<IrqSourceModel>& others,
    const TdmaModel& tdma, const OverheadTimes& oh, bool monitoring_active);

/// Worst-case latency under interposed handling when all activations
/// satisfy the monitoring condition (Eqs. 13-16).
[[nodiscard]] std::optional<ResponseTimeResult> interposed_latency(
    const IrqSourceModel& own, const std::vector<IrqSourceModel>& others,
    const OverheadTimes& oh);

}  // namespace rthv::analysis
