#include <gtest/gtest.h>

#include "analysis/arrival_curve.hpp"
#include "analysis/min_distance.hpp"

namespace rthv::analysis {
namespace {

using sim::Duration;

TEST(BurstModelTest, WithinBurstUsesInnerDistance) {
  // Bursts of 4 every 1 ms, 50 us apart inside.
  BurstModel m(Duration::ms(1), 4, Duration::us(50));
  EXPECT_EQ(m(1), Duration::zero());
  EXPECT_EQ(m(2), Duration::us(50));
  EXPECT_EQ(m(3), Duration::us(100));
  EXPECT_EQ(m(4), Duration::us(150));
}

TEST(BurstModelTest, AcrossBurstsUsesOuterPeriod) {
  BurstModel m(Duration::ms(1), 4, Duration::us(50));
  EXPECT_EQ(m(5), Duration::ms(1));                     // next burst start
  EXPECT_EQ(m(6), Duration::ms(1) + Duration::us(50));
  EXPECT_EQ(m(9), Duration::ms(2));
}

TEST(BurstModelTest, SizeOneDegeneratesToPeriodic) {
  BurstModel burst(Duration::ms(2), 1, Duration::us(1));
  PeriodicJitterModel periodic(Duration::ms(2), Duration::zero());
  for (std::uint64_t q = 1; q < 20; ++q) {
    EXPECT_EQ(burst(q), periodic(q)) << "q=" << q;
  }
}

TEST(BurstModelTest, ArrivalCurveCountsBursts) {
  auto m = make_bursty(Duration::ms(1), 4, Duration::us(50));
  ArrivalCurve eta(m);
  // A tiny window catches a whole burst (inner distances < window).
  EXPECT_EQ(eta(Duration::us(200)), 4u);
  // One period + epsilon catches two bursts.
  EXPECT_EQ(eta(Duration::ms(1) + Duration::us(200)), 8u);
  EXPECT_EQ(eta(Duration::us(40)), 1u);
  EXPECT_EQ(eta(Duration::us(51)), 2u);
}

TEST(BurstModelTest, MonotoneAndSuperadditiveish) {
  BurstModel m(Duration::ms(1), 3, Duration::us(100));
  Duration prev = Duration::zero();
  for (std::uint64_t q = 1; q < 50; ++q) {
    EXPECT_GE(m(q), prev);
    prev = m(q);
  }
}

TEST(LongRunRateTest, SporadicRate) {
  EXPECT_NEAR(long_run_rate_hz(*make_sporadic(Duration::ms(1))), 1000.0, 1.0);
}

TEST(LongRunRateTest, BurstRateIsSizeOverPeriod) {
  EXPECT_NEAR(long_run_rate_hz(*make_bursty(Duration::ms(1), 4, Duration::us(50))),
              4000.0, 10.0);
}

TEST(LongRunRateTest, JitterDoesNotChangeLongRunRate) {
  EXPECT_NEAR(long_run_rate_hz(*make_periodic(Duration::ms(2), Duration::ms(1))),
              500.0, 1.0);
}

TEST(UtilizationTest, MatchesRateTimesCost) {
  // 1000 events/s at 100 us each = 10% utilization.
  EXPECT_NEAR(utilization(*make_sporadic(Duration::ms(1)), Duration::us(100)), 0.1,
              0.001);
  // Overload detection: 4000/s at 300us = 120%.
  EXPECT_GT(utilization(*make_bursty(Duration::ms(1), 4, Duration::us(50)),
                        Duration::us(300)),
            1.0);
}

}  // namespace
}  // namespace rthv::analysis
