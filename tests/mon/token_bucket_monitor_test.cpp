#include "mon/token_bucket_monitor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/random.hpp"

namespace rthv::mon {
namespace {

using sim::Duration;
using sim::TimePoint;

TimePoint at_us(std::int64_t t) { return TimePoint::at_us(t); }

TEST(TokenBucketMonitorTest, StartsFullAndAdmitsBurstUpToDepth) {
  TokenBucketMonitor m(Duration::us(100), 3);
  EXPECT_TRUE(m.record_and_check(at_us(0)));
  EXPECT_TRUE(m.record_and_check(at_us(1)));
  EXPECT_TRUE(m.record_and_check(at_us(2)));
  EXPECT_FALSE(m.record_and_check(at_us(3)));  // bucket empty
}

TEST(TokenBucketMonitorTest, RefillsAtConfiguredRate) {
  TokenBucketMonitor m(Duration::us(100), 1);
  EXPECT_TRUE(m.record_and_check(at_us(0)));
  EXPECT_FALSE(m.record_and_check(at_us(50)));
  EXPECT_TRUE(m.record_and_check(at_us(100)));   // one interval elapsed
  EXPECT_FALSE(m.record_and_check(at_us(150)));
}

TEST(TokenBucketMonitorTest, FractionalAccrualCarriesOver) {
  TokenBucketMonitor m(Duration::us(100), 1);
  EXPECT_TRUE(m.record_and_check(at_us(0)));
  EXPECT_FALSE(m.record_and_check(at_us(60)));   // 0.6 intervals
  // 0.6 + 0.6 = 1.2 intervals since the first admission -> a token exists.
  EXPECT_TRUE(m.record_and_check(at_us(120)));
}

TEST(TokenBucketMonitorTest, TokensCapAtDepth) {
  TokenBucketMonitor m(Duration::us(10), 2);
  // A long quiet period must not accumulate more than `depth` tokens.
  m.record_and_check(at_us(0));
  EXPECT_EQ(m.tokens_at(at_us(10'000)), 2u);
  EXPECT_TRUE(m.record_and_check(at_us(10'000)));
  EXPECT_TRUE(m.record_and_check(at_us(10'001)));
  EXPECT_FALSE(m.record_and_check(at_us(10'002)));
}

TEST(TokenBucketMonitorTest, TokensAtIsPure) {
  TokenBucketMonitor m(Duration::us(100), 2);
  EXPECT_EQ(m.tokens_at(at_us(0)), 2u);
  EXPECT_EQ(m.tokens_at(at_us(0)), 2u);
  m.record_and_check(at_us(0));
  EXPECT_EQ(m.tokens_at(at_us(0)), 1u);
}

TEST(TokenBucketMonitorTest, AdmitsBurstsDeltaMinWouldDeny) {
  // The qualitative difference to the delta^- monitor: back-to-back
  // admissions are possible up to the bucket depth.
  TokenBucketMonitor bucket(Duration::us(100), 3);
  DeltaVectorMonitor dmin(DeltaVector{Duration::us(100)});
  int bucket_admits = 0;
  int dmin_admits = 0;
  for (int i = 0; i < 3; ++i) {
    bucket_admits += bucket.record_and_check(at_us(i));
    dmin_admits += dmin.record_and_check(at_us(i));
  }
  EXPECT_EQ(bucket_admits, 3);
  EXPECT_EQ(dmin_admits, 1);
}

TEST(TokenBucketMonitorTest, LongTermRateMatchesDeltaMin) {
  // Over a long window both shapers admit ~1 event per interval.
  TokenBucketMonitor bucket(Duration::us(100), 3);
  sim::Xoshiro256 rng(5);
  TimePoint t = TimePoint::origin();
  std::uint64_t admitted = 0;
  constexpr int kEvents = 20000;
  for (int i = 0; i < kEvents; ++i) {
    t += Duration::from_us_f(rng.exponential(50.0));  // 2x overload
    admitted += bucket.record_and_check(t);
  }
  const double window_us = t.as_us();
  const double expected = window_us / 100.0;
  EXPECT_NEAR(static_cast<double>(admitted), expected, expected * 0.05);
}

class BucketInterferenceBoundTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BucketInterferenceBoundTest, AdmissionsPerWindowWithinBound) {
  // In any window dt the bucket admits at most depth + ceil(dt/interval).
  const std::uint32_t depth = GetParam();
  const Duration interval = Duration::us(100);
  TokenBucketMonitor m(interval, depth);
  sim::Xoshiro256 rng(7 + depth);
  std::vector<TimePoint> admitted;
  TimePoint t = TimePoint::origin();
  for (int i = 0; i < 5000; ++i) {
    t += Duration::from_us_f(rng.exponential(20.0));  // heavy overload
    if (m.record_and_check(t)) admitted.push_back(t);
  }
  // Check the bound over sliding windows of several sizes.
  for (const std::int64_t win_us : {100, 500, 2000}) {
    const Duration win = Duration::us(win_us);
    const auto bound = static_cast<std::size_t>(depth + Duration::ceil_div(win, interval));
    for (std::size_t i = 0; i < admitted.size(); ++i) {
      std::size_t count = 0;
      for (std::size_t j = i; j < admitted.size() && admitted[j] - admitted[i] < win; ++j) {
        ++count;
      }
      ASSERT_LE(count, bound) << "window " << win_us << "us at index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, BucketInterferenceBoundTest,
                         ::testing::Values(1u, 3u, 8u));

TEST(TokenBucketInterferenceTest, FormulaMatchesDefinition) {
  const Duration c = Duration::us(50);
  EXPECT_EQ(token_bucket_interference(Duration::us(1), Duration::us(100), 3, c),
            c * 4);  // depth + 1
  EXPECT_EQ(token_bucket_interference(Duration::us(1000), Duration::us(100), 3, c),
            c * 13);
  EXPECT_EQ(token_bucket_interference(Duration::zero(), Duration::us(100), 3, c),
            Duration::zero());
  // The bucket bound is always weaker than Eq. 14 for equal rate.
  EXPECT_GT(token_bucket_interference(Duration::us(1000), Duration::us(100), 3, c),
            c * 10);
}

TEST(TokenBucketMonitorTest, RejectsZeroDepthAndInterval) {
  EXPECT_THROW(TokenBucketMonitor(Duration::us(100), 0), std::invalid_argument);
  EXPECT_THROW(TokenBucketMonitor(Duration::zero(), 1), std::invalid_argument);
}

}  // namespace
}  // namespace rthv::mon
