// Generic q-event busy-window solver (Eqs. 3-5 of the paper).
//
// The q-event busy time W(q) is the fixed point of
//     W(q) = q * C + sum_k I_k(W(q))
// where C is the per-event cost of the analyzed stream and each I_k is an
// interference term (other streams' load, TDMA blocking, ...). The
// worst-case response time follows as
//     R = max_{q in [1, Q]} ( W(q) - delta^-(q) )
// with Q the last activation inside the level-i busy period (Eq. 4).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/arrival_curve.hpp"
#include "analysis/min_distance.hpp"
#include "sim/time.hpp"

namespace rthv::analysis {

/// An additive interference term: time consumed by others within a busy
/// window of candidate length W.
using InterferenceTerm = std::function<sim::Duration(sim::Duration)>;

/// Classic "higher-priority task" interference: eta^+(W) * C.
[[nodiscard]] InterferenceTerm load_interference(ArrivalCurve eta, sim::Duration cost);

struct BusyWindowProblem {
  /// Cost attributed to each of the q analyzed events.
  sim::Duration per_event_cost;
  /// Additive interference terms evaluated at the candidate window length.
  std::vector<InterferenceTerm> interference;
  /// Fixed-point iteration aborts (divergence) past this window length.
  sim::Duration divergence_cap = sim::Duration::s(100);
  /// Safety bound on fixed-point iterations.
  std::uint32_t max_iterations = 100'000;
};

class BusyWindowSolver {
 public:
  explicit BusyWindowSolver(BusyWindowProblem problem);

  /// Solves W(q); std::nullopt if the iteration diverges (overload). The
  /// iteration may start at `from` if it is known not to exceed W(q), such
  /// as W(q - 1): it then reaches the same least fixed point in fewer steps.
  [[nodiscard]] std::optional<sim::Duration> busy_time(
      std::uint64_t q, sim::Duration from = sim::Duration::zero()) const;

  /// Right-hand side of the fixed-point equation at candidate W.
  [[nodiscard]] sim::Duration rhs(std::uint64_t q, sim::Duration w) const;

 private:
  BusyWindowProblem problem_;
};

struct ResponseTimeResult {
  sim::Duration worst_case;   // R (Eq. 5 / 12)
  std::uint64_t q_max;        // Q (Eq. 4)
  std::uint64_t critical_q;   // the q attaining the maximum
  std::vector<sim::Duration> busy_times;  // W(1) .. W(Q)
};

/// Full response-time analysis of a stream with activation model
/// `own_delta`: evaluates W(q) for q = 1, 2, ... while activation q + 1
/// still falls into the busy period (delta^-(q+1) <= W(q)) and maximizes
/// W(q) - delta^-(q). Returns std::nullopt on divergence.
///
/// All tick arithmetic is routed through core/checked.hpp: if a window or
/// interference term leaves the 64-bit tick range the iteration throws
/// core::TickOverflow (and non-convergent arrival-curve inversions throw
/// core::TickDomainError) instead of silently wrapping into a
/// plausible-looking bound.
[[nodiscard]] std::optional<ResponseTimeResult> response_time(
    const BusyWindowProblem& problem,
    const MinDistanceFunction& own_delta,
    std::uint64_t q_cap = 1'000'000);

}  // namespace rthv::analysis
