#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace rthv::workload {
namespace {

using sim::Duration;
using sim::TimePoint;

TEST(TraceTest, EmptyTrace) {
  Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.span(), Duration::zero());
}

TEST(TraceTest, DistancesAndActivationTimes) {
  Trace t({Duration::us(10), Duration::us(5), Duration::us(20)});
  EXPECT_EQ(t.size(), 3u);
  const auto times = t.activation_times();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], TimePoint::at_us(10));
  EXPECT_EQ(times[1], TimePoint::at_us(15));
  EXPECT_EQ(times[2], TimePoint::at_us(35));
  EXPECT_EQ(t.span(), Duration::us(35));
}

TEST(TraceTest, ActivationTimesWithOrigin) {
  Trace t({Duration::us(10)});
  const auto times = t.activation_times(TimePoint::at_us(100));
  EXPECT_EQ(times[0], TimePoint::at_us(110));
}

TEST(TraceTest, FromActivationsRoundTrip) {
  const std::vector<TimePoint> times{TimePoint::at_us(3), TimePoint::at_us(8),
                                     TimePoint::at_us(20)};
  const Trace t = Trace::from_activations(times);
  EXPECT_EQ(t.distance(0), Duration::us(3));
  EXPECT_EQ(t.distance(1), Duration::us(5));
  EXPECT_EQ(t.distance(2), Duration::us(12));
  EXPECT_EQ(t.activation_times(), times);
}

TEST(TraceTest, Statistics) {
  Trace t({Duration::us(10), Duration::us(20), Duration::us(30)});
  EXPECT_EQ(t.mean_distance(), Duration::us(20));
  EXPECT_EQ(t.min_distance(), Duration::us(10));
  EXPECT_NEAR(t.rate_hz(), 3.0 / 60e-6, 1.0);
}

TEST(TraceTest, DeltaVectorExtraction) {
  // Activations at 10, 15, 35, 40.
  Trace t({Duration::us(10), Duration::us(5), Duration::us(20), Duration::us(5)});
  const auto dv = t.delta_vector(3);
  ASSERT_EQ(dv.size(), 3u);
  EXPECT_EQ(dv[0], Duration::us(5));   // consecutive min
  EXPECT_EQ(dv[1], Duration::us(25));  // min of (35-10, 40-15)
  EXPECT_EQ(dv[2], Duration::us(30));  // 40-10
}

TEST(TraceTest, AppendConcatenates) {
  Trace a({Duration::us(1)});
  Trace b({Duration::us(2), Duration::us(3)});
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.distance(2), Duration::us(3));
}

TEST(TraceTest, PrefixTakesFirstN) {
  Trace t({Duration::us(1), Duration::us(2), Duration::us(3)});
  const Trace p = t.prefix(2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.distance(1), Duration::us(2));
}

TEST(TraceTest, CsvRoundTrip) {
  Trace t({Duration::ns(1500), Duration::us(2)});
  std::stringstream ss;
  t.save_csv(ss);
  const Trace back = Trace::load_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.distance(0), Duration::ns(1500));
  EXPECT_EQ(back.distance(1), Duration::us(2));
}

TEST(TraceTest, CsvRejectsMissingHeader) {
  std::stringstream ss("1500\n2000\n");
  EXPECT_THROW(Trace::load_csv(ss), std::runtime_error);
}

TEST(TraceTest, CsvRejectsMalformedRowsNamingTheLine) {
  // A negative row and trailing garbage used to load ("12abc" as 12), and a
  // non-number surfaced as a bare std::invalid_argument from stoll.
  for (const char* row : {"-5", "12abc", "xyz", " 7", "99999999999999999999"}) {
    std::stringstream ss(std::string("distance_ns\n1500\n") + row + "\n");
    try {
      (void)Trace::load_csv(ss);
      ADD_FAILURE() << "accepted: " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    }
  }
}

TEST(TraceTest, CsvFileRoundTrip) {
  Trace t({Duration::us(7)});
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.csv";
  t.save_csv_file(path);
  const Trace back = Trace::load_csv_file(path);
  EXPECT_EQ(back.distances(), t.distances());
}

TEST(TraceTest, LoadMissingFileThrows) {
  EXPECT_THROW(Trace::load_csv_file("/nonexistent/definitely/missing.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace rthv::workload
