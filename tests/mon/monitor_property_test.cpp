// Property tests of the monitoring invariants the paper's correctness
// argument rests on:
//  1. (Soundness) the subsequence of ADMITTED activations always satisfies
//     the delta^- condition -- this is what bounds the interference (Eq. 14).
//  2. (Non-starvation under conformance) a trace that satisfies the
//     condition is admitted in full.
//  3. The learning monitor never learns distances smaller than the bound
//     after adjustment.
#include <gtest/gtest.h>

#include <vector>

#include "mon/learning_monitor.hpp"
#include "mon/monitor.hpp"
#include "sim/random.hpp"

namespace rthv::mon {
namespace {

using sim::Duration;
using sim::TimePoint;

std::vector<TimePoint> random_trace(std::uint64_t seed, std::size_t n,
                                    double mean_gap_us) {
  sim::Xoshiro256 rng(seed);
  std::vector<TimePoint> out;
  TimePoint t = TimePoint::origin();
  for (std::size_t i = 0; i < n; ++i) {
    t += Duration::from_us_f(rng.exponential(mean_gap_us));
    out.push_back(t);
  }
  return out;
}

bool satisfies_delta(const std::vector<TimePoint>& events, const DeltaVector& deltas) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      if (i > k && events[i] - events[i - k - 1] < deltas[k]) return false;
    }
  }
  return true;
}

struct PropertyCase {
  std::uint64_t seed;
  double mean_gap_us;
  std::size_t depth;
};

class AdmittedSubsequenceTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AdmittedSubsequenceTest, AdmittedEventsSatisfyDeltaCondition) {
  const auto p = GetParam();
  DeltaVector deltas;
  for (std::size_t k = 0; k < p.depth; ++k) {
    deltas.push_back(Duration::from_us_f(p.mean_gap_us * static_cast<double>(k + 1)));
  }
  DeltaVectorMonitor monitor(deltas);
  std::vector<TimePoint> admitted;
  for (const auto t : random_trace(p.seed, 2000, p.mean_gap_us)) {
    if (monitor.record_and_check(t)) admitted.push_back(t);
  }
  // Soundness: every pair of admitted events k+1 apart spans >= deltas[k].
  // (The monitor checks against ALL arrivals, which is stricter than
  // checking admitted-only, so this must hold a fortiori.)
  EXPECT_TRUE(satisfies_delta(admitted, deltas));
  EXPECT_GT(admitted.size(), 0u);
  EXPECT_LT(admitted.size(), 2000u);  // some random gaps must violate
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, AdmittedSubsequenceTest,
    ::testing::Values(PropertyCase{1, 100.0, 1}, PropertyCase{2, 100.0, 3},
                      PropertyCase{3, 50.0, 5}, PropertyCase{4, 1000.0, 2},
                      PropertyCase{5, 10.0, 4}, PropertyCase{6, 250.0, 1}));

class ConformingTraceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConformingTraceTest, FullyConformingTraceFullyAdmitted) {
  // Build a trace whose gaps are all >= d_min by flooring, then check the
  // l = 1 monitor admits every event.
  sim::Xoshiro256 rng(GetParam());
  const Duration d_min = Duration::us(100);
  DeltaVectorMonitor monitor(DeltaVector{d_min});
  TimePoint t = TimePoint::origin();
  for (int i = 0; i < 1000; ++i) {
    const auto gap = std::max(d_min, Duration::from_us_f(rng.exponential(100.0)));
    t += gap;
    EXPECT_TRUE(monitor.record_and_check(t));
  }
  EXPECT_EQ(monitor.denied(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConformingTraceTest, ::testing::Values(10u, 11u, 12u));

class LearningBoundTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LearningBoundTest, EnforcedVectorRespectsBoundAndMonotone) {
  sim::Xoshiro256 rng(GetParam());
  const std::size_t depth = 4;
  DeltaVector bound;
  for (std::size_t k = 0; k < depth; ++k) {
    bound.push_back(Duration::us(50 * static_cast<std::int64_t>(k + 1)));
  }
  LearningDeltaMonitor monitor(depth, 500, bound);
  TimePoint t = TimePoint::origin();
  for (int i = 0; i < 500; ++i) {
    t += Duration::from_us_f(rng.exponential(80.0));
    monitor.record_and_check(t);
  }
  ASSERT_EQ(monitor.phase(), LearningDeltaMonitor::Phase::kRunning);
  const auto& enforced = monitor.enforced();
  for (std::size_t k = 0; k < depth; ++k) {
    EXPECT_GE(enforced[k], bound[k]) << "entry " << k;
    if (k > 0) {
      EXPECT_GE(enforced[k], enforced[k - 1]);
    }
  }
  // Learned entries are true minima of the observed trace, so enforced is
  // also >= learned by construction.
  for (std::size_t k = 0; k < depth; ++k) {
    EXPECT_GE(enforced[k], monitor.learned()[k] < bound[k] ? bound[k]
                                                           : monitor.learned()[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearningBoundTest, ::testing::Values(20u, 21u, 22u, 23u));

TEST(MonitorInterferenceBoundTest, AdmissionsPerWindowBounded) {
  // Eq. 14's premise: in any window dt there are at most ceil(dt/d_min)
  // admitted activations. Verified on a hostile trace (bursts).
  const Duration d_min = Duration::us(100);
  DeltaVectorMonitor monitor(DeltaVector{d_min});
  sim::Xoshiro256 rng(77);
  std::vector<TimePoint> admitted;
  TimePoint t = TimePoint::origin();
  for (int i = 0; i < 5000; ++i) {
    // Bursty: 80% tiny gaps, 20% large.
    const double gap_us = rng.uniform01() < 0.8 ? rng.exponential(10.0)
                                                : rng.exponential(500.0);
    t += Duration::from_us_f(gap_us);
    if (monitor.record_and_check(t)) admitted.push_back(t);
  }
  ASSERT_GT(admitted.size(), 2u);
  for (std::size_t i = 0; i + 1 < admitted.size(); ++i) {
    // Any two consecutive admissions are >= d_min apart, which implies the
    // window bound for all window sizes.
    EXPECT_GE(admitted[i + 1] - admitted[i], d_min);
  }
}

}  // namespace
}  // namespace rthv::mon
