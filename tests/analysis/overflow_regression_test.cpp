// Regression tests for the checked-arithmetic migration of the analysis
// layer: extreme-but-valid parameters (tiny d_min, huge windows/costs,
// near-overflow T_TDMA) must raise core::ArithmeticError instead of
// silently wrapping into a plausible-looking bound. Every test here must
// pass in Debug and Release builds alike -- the checked_* helpers throw in
// all build modes, so none of these paths rely on assert().
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/arrival_curve.hpp"
#include "analysis/busy_window.hpp"
#include "analysis/irq_latency.hpp"
#include "analysis/min_distance.hpp"
#include "core/checked.hpp"
#include "sim/time.hpp"

namespace core = rthv::core;
using namespace rthv::analysis;
using rthv::sim::Duration;

namespace {

constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();

TEST(OverflowRegression, ArrivalCurveNonConvergenceIsDomainError) {
  // d_min = 1 ns and a multi-hour window push eta past the 2^40 search cap:
  // the pseudo-inverse cannot converge and must say so.
  const ArrivalCurve eta(make_sporadic(Duration::ns(1)));
  EXPECT_THROW((void)eta(Duration::s(10'000)), core::TickDomainError);
}

TEST(OverflowRegression, LoadInterferenceOverflowsLoudly) {
  // eta(dt) ~ 5e11 events at 1 s per event is ~5e20 ns of interference --
  // far past INT64_MAX. The unchecked Eq. 7 would wrap to a small positive
  // number and the busy window would "converge" to garbage.
  const auto term = load_interference(ArrivalCurve(make_sporadic(Duration::ns(1))),
                                      Duration::s(1));
  EXPECT_THROW((void)term(Duration::s(500)), core::TickOverflow);
}

TEST(OverflowRegression, TdmaInterferenceNearOverflowCycle) {
  // T_TDMA near INT64_MAX/2: three blocked cycles inside a full-range
  // window exceed the tick range (Eq. 8 would wrap negative).
  TdmaModel tdma;
  tdma.cycle = Duration::ns(kMaxNs / 2);
  tdma.slot = Duration::ns(1);
  EXPECT_THROW((void)tdma_interference(Duration::ns(kMaxNs), tdma),
               core::TickOverflow);
}

TEST(OverflowRegression, TdmaInterferenceEntryOverheadOverflow) {
  // A pathological entry overhead makes the per-cycle blocking exceed the
  // cycle itself; ~9.2e9 cycles of ~2 s blocking each overflows.
  TdmaModel tdma;
  tdma.cycle = Duration::s(1);
  tdma.slot = Duration::ns(1);
  tdma.entry_overhead = Duration::s(1);
  EXPECT_THROW((void)tdma_interference(Duration::ns(kMaxNs), tdma),
               core::TickOverflow);
}

TEST(OverflowRegression, InterposedInterferenceTinyDminHugeWindow) {
  // Eq. 14 with d_min = 1 ns: the admitted-event count equals the window in
  // ns; multiplied by a 1 s effective bottom cost it leaves the tick range.
  EXPECT_THROW((void)interposed_interference(Duration::s(100), Duration::ns(1),
                                             Duration::s(1)),
               core::TickOverflow);
}

TEST(OverflowRegression, TokenBucketInterferenceOverflowsLoudly) {
  // A 1 ns fill interval over 100 s admits 1e11 + depth interpositions; at
  // 1 s each the product leaves the tick range. So does the admission
  // count itself when depth is added to a count near INT64_MAX.
  EXPECT_THROW((void)token_bucket_interference(Duration::s(100), Duration::ns(1), 3,
                                               Duration::s(1)),
               core::TickOverflow);
  EXPECT_THROW((void)token_bucket_interference(Duration::ns(kMaxNs), Duration::ns(1),
                                               std::numeric_limits<std::uint32_t>::max(),
                                               Duration::ns(1)),
               core::TickOverflow);
}

TEST(OverflowRegression, WindowCountInterferenceOverflowsLoudly) {
  // (ceil(dt / window) + 1) * max_events: the window count, the event count
  // and the cost multiply each have to be checked.
  EXPECT_THROW((void)window_count_interference(Duration::s(100), Duration::ns(1), 2,
                                               Duration::s(1)),
               core::TickOverflow);
  EXPECT_THROW((void)window_count_interference(Duration::ns(kMaxNs), Duration::ns(1), 1,
                                               Duration::ns(1)),
               core::TickOverflow);
  EXPECT_THROW((void)window_count_interference(Duration::ns(kMaxNs), Duration::ns(2),
                                               std::numeric_limits<std::uint32_t>::max(),
                                               Duration::ns(1)),
               core::TickOverflow);
}

TEST(OverflowRegression, ShaperCurvesRejectNonPositiveIntervals) {
  // Release and Debug alike: a zero or negative fill interval / window is a
  // domain error, never a division by zero.
  const Duration c = Duration::us(1);
  EXPECT_THROW((void)token_bucket_interference(Duration::us(1), Duration::zero(), 1, c),
               core::TickDomainError);
  EXPECT_THROW((void)window_count_interference(Duration::us(1), Duration::us(-1), 1, c),
               core::TickDomainError);
}

TEST(OverflowRegression, EffectiveCostsNearMaxOverflow) {
  OverheadTimes oh;
  oh.c_mon = Duration::ns(kMaxNs);
  oh.c_sched = Duration::zero();
  oh.c_ctx = Duration::zero();
  EXPECT_THROW((void)effective_top_cost(Duration::ns(1), oh), core::TickOverflow);
  oh.c_mon = Duration::zero();
  oh.c_ctx = Duration::ns(kMaxNs / 2 + 1);
  EXPECT_THROW((void)effective_bottom_cost(Duration::zero(), oh),
               core::TickOverflow);
}

TEST(OverflowRegression, BusyWindowIterationDetectsOverflow) {
  // With the divergence cap lifted, the fixed point of a 1 s per-event cost
  // against a d_min = 1 ns interferer explodes within two iterations. The
  // old code wrapped and kept iterating on garbage; now the iteration
  // surfaces an ArithmeticError (overflowed multiply or non-convergent
  // arrival-curve inversion, whichever trips first).
  BusyWindowProblem problem;
  problem.per_event_cost = Duration::s(1);
  problem.interference.push_back(
      load_interference(ArrivalCurve(make_sporadic(Duration::ns(1))), Duration::s(1)));
  problem.divergence_cap = Duration::ns(kMaxNs);
  const auto own = make_sporadic(Duration::ms(1));
  EXPECT_THROW((void)response_time(problem, *own), core::ArithmeticError);
}

TEST(OverflowRegression, TdmaLatencyExtremeCostsThrowInsteadOfWrapping) {
  // Full Eq. 11 pipeline: a 100 s top handler fed by a 1 ns-spaced stream
  // overflows inside the very first rhs evaluation, before the divergence
  // cap can hide it.
  IrqSourceModel own;
  own.activation = make_sporadic(Duration::ns(1));
  own.c_top = Duration::s(100);
  own.c_bottom = Duration::s(1);
  TdmaModel tdma;
  tdma.cycle = Duration::ms(1);
  tdma.slot = Duration::us(1);
  OverheadTimes oh{};
  EXPECT_THROW((void)tdma_latency(own, {}, tdma, oh, false), core::ArithmeticError);
}

TEST(OverflowRegression, SaneParametersStillConverge) {
  // Non-regression: the checked migration must not change results for the
  // paper-scale parameter ranges (microsecond costs, millisecond periods).
  IrqSourceModel own;
  own.activation = make_sporadic(Duration::ms(1));
  own.c_top = Duration::us(5);
  own.c_bottom = Duration::us(20);
  TdmaModel tdma;
  tdma.cycle = Duration::ms(10);
  tdma.slot = Duration::ms(2);
  OverheadTimes oh;
  oh.c_mon = Duration::us(1);
  oh.c_sched = Duration::us(2);
  oh.c_ctx = Duration::us(3);
  const auto r = tdma_latency(own, {}, tdma, oh, false);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->worst_case, Duration::zero());
  const auto i = interposed_latency(own, {}, oh);
  ASSERT_TRUE(i.has_value());
  EXPECT_GT(i->worst_case, Duration::zero());
  // Interposed handling removes the TDMA blocking term (the paper's point).
  EXPECT_LT(i->worst_case, r->worst_case);
}

}  // namespace
