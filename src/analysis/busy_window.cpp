#include "analysis/busy_window.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/checked.hpp"

namespace rthv::analysis {

InterferenceTerm load_interference(ArrivalCurve eta, sim::Duration cost) {
  return [eta = std::move(eta), cost](sim::Duration w) {
    return core::checked_mul(cost, eta(w), "analysis/load-interference");
  };
}

BusyWindowSolver::BusyWindowSolver(BusyWindowProblem problem)
    : problem_(std::move(problem)) {
  RTHV_PRECONDITION(!problem_.per_event_cost.is_negative(),
                    "analysis/busy-window-cost-nonnegative");
}

sim::Duration BusyWindowSolver::rhs(std::uint64_t q, sim::Duration w) const {
  sim::Duration total =
      core::checked_mul(problem_.per_event_cost, q, "analysis/busy-window-own-load");
  for (const auto& term : problem_.interference) {
    total = core::checked_add(total, term(w), "analysis/busy-window-interference");
  }
  return total;
}

std::optional<sim::Duration> BusyWindowSolver::busy_time(std::uint64_t q,
                                                         sim::Duration from) const {
  assert(q >= 1);
  // Standard fixed-point iteration from below: start with the pure own load
  // (a positive seed so window-dependent terms see a non-empty window).
  sim::Duration w = std::max(
      from, core::checked_mul(problem_.per_event_cost, q, "analysis/busy-window-seed"));
  if (!w.is_positive()) w = sim::Duration::ns(1);
  for (std::uint32_t it = 0; it < problem_.max_iterations; ++it) {
    const sim::Duration next = rhs(q, w);
    if (next == w) return w;
    RTHV_INVARIANT(next > w, "analysis/busy-window-monotone");
    if (next > problem_.divergence_cap) return std::nullopt;
    w = next;
  }
  return std::nullopt;
}

std::optional<ResponseTimeResult> response_time(const BusyWindowProblem& problem,
                                                const MinDistanceFunction& own_delta,
                                                std::uint64_t q_cap) {
  const BusyWindowSolver solver(problem);
  ResponseTimeResult out{};
  out.worst_case = sim::Duration::zero();
  out.q_max = 0;
  out.critical_q = 0;

  for (std::uint64_t q = 1; q <= q_cap; ++q) {
    // W(q) is non-decreasing in q, so W(q - 1) is a valid start for W(q).
    const auto w = solver.busy_time(
        q, out.busy_times.empty() ? sim::Duration::zero() : out.busy_times.back());
    if (!w) return std::nullopt;  // diverged: no bounded response time
    out.busy_times.push_back(*w);
    out.q_max = q;
    const sim::Duration r =
        core::checked_sub(*w, own_delta(q), "analysis/response-time");
    if (r > out.worst_case || out.critical_q == 0) {
      out.worst_case = r;
      out.critical_q = q;
    }
    // Eq. 4: activation q + 1 belongs to the same busy period only if it can
    // arrive before the q-event busy time elapsed.
    if (own_delta(q + 1) > *w) return out;
  }
  // The busy period never closed within q_cap activations: the own stream
  // overloads its resource share and no bounded response time exists.
  return std::nullopt;
}

}  // namespace rthv::analysis
