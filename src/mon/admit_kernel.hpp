// Branchless admission kernel for the delta^- full-window check.
//
// The check "for all i in [0, l): now - win[i] >= delta[i]" is a pure
// reduction over two contiguous int64 arrays, so it auto-vectorizes on any
// target without intrinsics or -march flags: the loop carries a single
// accumulator AND-ed with one comparison per lane and has no early exit,
// loads are unit-stride, and the trip count is the monitor depth.
//
// Two implementations share the exact same arithmetic on the exact same
// operands, so their verdicts are bit-identical by construction:
//   - admit_full_vector: branch-free AND-reduction (the SIMD-friendly form),
//     which the monitors' full-window hot path runs
//   - admit_full_scalar: early-exit reference loop (Algorithm 1 as written),
//     which the monitors' warm-up path runs on a partial window
// The randomized differential test drives both over the same inputs.
//
// Hot-path rules (enforced by tools/rthv_lint): no allocation, no iostream,
// callers pass raw pointers into preexisting storage.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rthv::mon {

/// Branch-free full-window conformance check: 1 iff the activation at
/// `now_ns` keeps every spanned distance, i.e. for all i in [0, l):
/// (now_ns - win_ns[i]) >= delta_ns[i], where win_ns[0] is the most recent
/// recorded activation. No early exit -- the AND-reduction is what lets the
/// compiler vectorize the loop.
inline bool admit_full_vector(const std::int64_t* win_ns, const std::int64_t* delta_ns,
                              std::size_t l, std::int64_t now_ns) {
  std::int64_t ok = 1;
  for (std::size_t i = 0; i < l; ++i) {
    ok &= static_cast<std::int64_t>((now_ns - win_ns[i]) >= delta_ns[i]);
  }
  return ok != 0;
}

/// Early-exit reference implementation of the same predicate, evaluating
/// the same comparisons in the same order (Algorithm 1's loop shape).
inline bool admit_full_scalar(const std::int64_t* win_ns, const std::int64_t* delta_ns,
                              std::size_t l, std::int64_t now_ns) {
  for (std::size_t i = 0; i < l; ++i) {
    if ((now_ns - win_ns[i]) < delta_ns[i]) return false;
  }
  return true;
}

/// Full-window check used by the monitors' hot path.
///
/// Lane 0 (the consecutive-event distance d_min) is the tightest constraint
/// relative to typical gaps, so a violating activation almost always fails
/// there; rejecting on it before entering a kernel is an early-out of the
/// same AND-reduction (verdicts unchanged) that gives deny-heavy streams
/// the scalar loop's exit cost while conforming streams pay one
/// well-predicted compare.
inline bool admit_full(const std::int64_t* win_ns, const std::int64_t* delta_ns,
                       std::size_t l, std::int64_t now_ns) {
  if ((now_ns - win_ns[0]) < delta_ns[0]) return false;
  // Lane 0 is known conforming; the AND-reduction covers the rest.
  return admit_full_vector(win_ns + 1, delta_ns + 1, l - 1, now_ns);
}

}  // namespace rthv::mon
