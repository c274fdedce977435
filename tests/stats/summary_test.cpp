#include "stats/summary.hpp"

#include <gtest/gtest.h>

namespace rthv::stats {
namespace {

using sim::Duration;

TEST(SummaryTest, BasicMoments) {
  Summary s;
  s.add(Duration::us(10));
  s.add(Duration::us(20));
  s.add(Duration::us(30));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.mean(), Duration::us(20));
  EXPECT_EQ(s.min(), Duration::us(10));
  EXPECT_EQ(s.max(), Duration::us(30));
}

TEST(SummaryTest, MeanIsExactForNonDivisibleSums) {
  Summary s;
  s.add(Duration::ns(1));
  s.add(Duration::ns(2));
  EXPECT_EQ(s.mean(), Duration::ns(1));  // floor(3/2)
}

TEST(SummaryTest, MeanHandlesHugeSums) {
  Summary s;
  // 1000 samples of ~1e16 ns would overflow a naive 64-bit sum times 1000.
  for (int i = 0; i < 1000; ++i) s.add(Duration::s(10'000'000));
  EXPECT_EQ(s.mean(), Duration::s(10'000'000));
}

TEST(SummaryTest, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(Duration::us(i));
  EXPECT_EQ(s.percentile(50), Duration::us(50));
  EXPECT_EQ(s.percentile(99), Duration::us(99));
  EXPECT_EQ(s.percentile(100), Duration::us(100));
  EXPECT_EQ(s.percentile(0), Duration::us(1));
  EXPECT_EQ(s.median(), Duration::us(50));
}

TEST(SummaryTest, PercentileAfterLaterAdds) {
  Summary s;
  s.add(Duration::us(10));
  EXPECT_EQ(s.median(), Duration::us(10));
  s.add(Duration::us(2));
  s.add(Duration::us(4));
  EXPECT_EQ(s.median(), Duration::us(4));  // later samples count
}

TEST(SummaryTest, StddevOfConstantIsZero) {
  Summary s;
  for (int i = 0; i < 10; ++i) s.add(Duration::us(7));
  EXPECT_EQ(s.stddev(), Duration::zero());
}

TEST(SummaryTest, StddevKnownValue) {
  Summary s;
  s.add(Duration::us(10));
  s.add(Duration::us(20));
  // Population stddev of {10, 20} is 5.
  EXPECT_EQ(s.stddev(), Duration::us(5));
}

TEST(SlidingAverageTest, GrowsUntilWindowFull) {
  SlidingAverage avg(3);
  EXPECT_EQ(avg.add(Duration::us(10)), Duration::us(10));
  EXPECT_EQ(avg.add(Duration::us(20)), Duration::us(15));
  EXPECT_EQ(avg.add(Duration::us(30)), Duration::us(20));
  EXPECT_EQ(avg.filled(), 3u);
}

TEST(SlidingAverageTest, SlidesAfterWindowFull) {
  SlidingAverage avg(2);
  avg.add(Duration::us(10));
  avg.add(Duration::us(20));
  // Window now {20, 30}.
  EXPECT_EQ(avg.add(Duration::us(30)), Duration::us(25));
  // Window now {30, 100}.
  EXPECT_EQ(avg.add(Duration::us(100)), Duration::us(65));
}

TEST(SlidingAverageTest, WindowOfOneTracksLastSample) {
  SlidingAverage avg(1);
  avg.add(Duration::us(5));
  EXPECT_EQ(avg.add(Duration::us(9)), Duration::us(9));
  EXPECT_EQ(avg.current(), Duration::us(9));
}

}  // namespace
}  // namespace rthv::stats
