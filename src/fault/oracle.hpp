// InterferenceOracle: replays the admitted-activation record from the obs
// trace ring against the paper's interference bound and fails the run on
// any violation.
//
// Eq. 14 bounds what an interposed source may cost any other partition in a
// window dt:  I(dt) = ceil(dt / d_min) * C'_BH.  The oracle checks the two
// halves of that product independently:
//
//  1. Admission count. kInterposeStart carries the admitted activation's
//     raise time in arg0 (the instant the delta^- condition judged).
//     ceil(dt/d_min) is the half-open-window arrival curve of a d_min
//     stream, so the tightest window over admissions i..j allows
//     floor((t_j - t_i)/d_min) + 1 of them, and a violation in some window
//     exists iff t_j - t_i < (j - i) * d_min for some i < j. With
//     u_k = t_k - k*d_min that is u_j < max_{i<j}(u_i), so one running
//     maximum checks *every* window of the run in O(n) -- no quadratic
//     scan, no sampled subset of windows.
//
//  2. Per-interposition cost. The span from kInterposeEnter to
//     kInterposeReturn / kInterposeExitDeferred plus the C_sched + C_ctx
//     spent before entry must stay within C'_BH (Eq. 13). Spans containing
//     top-handler, monitor or scheduler events are excluded (and counted):
//     their wall-clock includes preempting work that Eq. 14 attributes to
//     the preempting source, not this interposition.
//
// Shared-interconnect fold (multi-core). On a contended interconnect an
// admitted interposition costs C'_BH + charge, where `charge` is the
// deterministic contention stall of the handler's access burst
// (hw::SharedInterconnect). Each admission emits a kInterposeCharge record
// (arg0 = the normalized-clock shift ceil(charge * d_min / C'_BH), arg1 =
// charge), and the oracle folds both halves:
//   - Admission count: replayed on the same normalized clock the hypervisor
//     feeds its monitor, t' = t - acc with acc the running sum of shifts.
//     n admissions passing the d_min check on t' span real time
//     dt >= dt' = (n-1) * d_min, and their total cost n*C'_BH + sum(charge)
//     <= (n + sum(shift)/d_min) * C'_BH <= ceil((dt' + sum(shift))/d_min) *
//     C'_BH <= I(dt): the normalized check conserves Eq. 14 for the
//     inflated costs.
//   - Per-interposition cost: the admitted span's allowance is extended by
//     exactly its frozen charge (C'_BH + charge).
// set_fold_contention(false) replays raw times with no allowance -- used by
// tests to demonstrate that contended runs genuinely exceed the uncorrected
// bound, i.e. the fold is load-bearing, not slack.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"
#include "sim/time.hpp"

namespace rthv::core {
class HypervisorSystem;
}

namespace rthv::fault {

/// The analysis-side constants the oracle holds one source to.
struct OracleSourceParams {
  std::uint32_t source = 0;
  sim::Duration d_min;     // monitoring condition (delta^-[1] for vectors)
  sim::Duration c_bh_eff;  // C'_BH = C_BH + C_sched + 2*C_ctx   (Eq. 13)
  sim::Duration pre_cost;  // C_sched + C_ctx spent before kInterposeEnter
};

/// One window whose admission count exceeded ceil(dt / d_min).
struct OracleViolation {
  std::uint32_t source = 0;
  std::uint64_t first_index = 0;  // admission index opening the window
  std::uint64_t last_index = 0;   // admission index closing it
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  std::uint64_t admitted = 0;  // admissions inside the window
  std::uint64_t bound = 0;     // ceil(window / d_min)
};

struct OracleReport {
  std::uint64_t interpositions = 0;    // kInterposeStart events replayed
  /// kInterposeStart events of sources the oracle has no params for (no
  /// positive delta^- condition, e.g. a token-bucket, window-count or
  /// learning monitor): counted above but held to no bound.
  std::uint64_t unchecked_interpositions = 0;
  std::vector<std::uint32_t> unchecked_sources;  // their sources, ascending
  std::uint64_t windows_checked = 0;   // admission windows tested (one per event)
  std::uint64_t spans_checked = 0;     // uninterrupted enter->exit spans tested
  std::uint64_t preempted_spans = 0;   // spans excluded from the cost check
  std::uint64_t contention_charges = 0;   // kInterposeCharge records folded
  std::int64_t total_charge_ns = 0;       // sum of folded contention stalls
  std::int64_t max_interposition_ns = 0;  // worst span + pre_cost observed
  double worst_ratio = 0.0;  // max admitted/bound over all checked windows
  std::vector<OracleViolation> violations;       // count violations (Eq. 14)
  std::vector<OracleViolation> cost_violations;  // span > C'_BH (Eq. 13)

  /// No violation found. Says nothing about unchecked sources.
  [[nodiscard]] bool ok() const {
    return violations.empty() && cost_violations.empty();
  }

  /// Human-readable one-paragraph summary (used by rthv_run --fault-plan).
  /// Names every unchecked source, and claims "all within" only when there
  /// is none.
  void write(std::ostream& out) const;
};

class InterferenceOracle {
 public:
  explicit InterferenceOracle(std::vector<OracleSourceParams> params);

  /// Params for every delta-monitored source of an assembled system, taken
  /// from its config and overhead model (the same constants the analysis
  /// layer uses -- the oracle never trusts runtime state).
  [[nodiscard]] static std::vector<OracleSourceParams> params_from(
      const core::HypervisorSystem& system);

  /// Replays a trace snapshot (oldest first, as returned by
  /// HypervisorSystem::trace()).
  [[nodiscard]] OracleReport verify(
      const std::vector<obs::TraceEvent>& events) const;

  /// Replays the ring's retained events in place, with no copy.
  [[nodiscard]] OracleReport verify(const obs::TraceRing& ring) const;

  [[nodiscard]] const std::vector<OracleSourceParams>& params() const {
    return params_;
  }

  /// Fold kInterposeCharge records into the bound (default on). Off, the
  /// oracle replays raw raise times against an unextended C'_BH -- a
  /// contended multi-core run then *must* report violations, which is the
  /// falsifiability check that the fold carries real weight.
  void set_fold_contention(bool on) { fold_contention_ = on; }
  [[nodiscard]] bool fold_contention() const { return fold_contention_; }

 private:
  /// The replay loop of both verify() overloads: `older` then `newer`.
  [[nodiscard]] OracleReport replay(std::span<const obs::TraceEvent> older,
                                    std::span<const obs::TraceEvent> newer) const;

  std::vector<OracleSourceParams> params_;
  bool fold_contention_ = true;
};

}  // namespace rthv::fault
