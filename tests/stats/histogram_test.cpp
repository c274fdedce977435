// Rendering of latency histograms (obs::MetricsSnapshot::Histogram, the
// shape of the irq.latency.* metrics) as Fig. 6-style CSV and ASCII.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "stats/export.hpp"

namespace rthv::stats {
namespace {

using Histogram = obs::MetricsSnapshot::Histogram;

constexpr std::int64_t kUs = 1000;

Histogram make(std::int64_t lo_us, std::int64_t width_us, std::size_t buckets) {
  Histogram h;
  h.name = "latency";
  h.lo_ns = lo_us * kUs;
  h.width_ns = width_us * kUs;
  h.buckets = obs::BucketCounts(static_cast<std::uint32_t>(buckets));
  return h;
}

std::string csv(const Histogram& h) {
  std::ostringstream os;
  write_histogram_csv(os, h);
  return os.str();
}

std::string ascii(const Histogram& h) {
  std::ostringstream os;
  write_histogram_ascii(os, h);
  return os.str();
}

TEST(HistogramTest, SamplesLandInCorrectBins) {
  Histogram h = make(0, 10, 10);
  h.observe(0);
  h.observe(9 * kUs);
  h.observe(10 * kUs);
  h.observe(99 * kUs);
  EXPECT_EQ(csv(h),
            "bin_lo_us,bin_hi_us,count\n0,10,2\n10,20,1\n20,30,0\n30,40,0\n40,50,0\n"
            "50,60,0\n60,70,0\n70,80,0\n80,90,0\n90,100,1\n");
}

TEST(HistogramTest, UnderflowAndOverflow) {
  Histogram h = make(10, 10, 1);
  h.observe(5 * kUs);
  h.observe(25 * kUs);
  h.observe(15 * kUs);
  EXPECT_EQ(csv(h), "bin_lo_us,bin_hi_us,count\n10,20,1\n");  // tails are not rows
  const auto text = ascii(h);
  EXPECT_NE(text.find("[10, 20) "), std::string::npos);
  EXPECT_NE(text.find("underflow: 1\n"), std::string::npos);
  EXPECT_NE(text.find("overflow: 1\n"), std::string::npos);
}

TEST(HistogramTest, BinBoundaries) {
  // Edges are lo + i * width, printed in microseconds (fractions kept).
  Histogram h = make(100, 100, 3);
  EXPECT_EQ(csv(h), "bin_lo_us,bin_hi_us,count\n100,200,0\n200,300,0\n300,400,0\n");
  Histogram fine;
  fine.lo_ns = 0;
  fine.width_ns = 1500;
  fine.buckets = obs::BucketCounts(2);
  EXPECT_EQ(csv(fine), "bin_lo_us,bin_hi_us,count\n0,1.5,0\n1.5,3,0\n");
}

TEST(HistogramTest, CsvOutput) {
  Histogram h = make(0, 10, 2);
  h.observe(5 * kUs);
  EXPECT_EQ(csv(h), "bin_lo_us,bin_hi_us,count\n0,10,1\n10,20,0\n");
}

TEST(HistogramTest, AsciiSkipsEmptyBinsAndShowsCounts) {
  Histogram h = make(0, 10, 3);
  for (int i = 0; i < 5; ++i) h.observe(5 * kUs);
  h.observe(25 * kUs);
  const auto text = ascii(h);
  EXPECT_NE(text.find("#"), std::string::npos);
  EXPECT_NE(text.find(" 5"), std::string::npos);
  EXPECT_EQ(text.find("[10, 20)"), std::string::npos);  // empty bin skipped
  EXPECT_EQ(text.find("flow"), std::string::npos);      // no tails to report
}

TEST(HistogramTest, AsciiEmptyHistogram) {
  EXPECT_EQ(ascii(make(0, 10, 1)), "(empty histogram)\n");
}

}  // namespace
}  // namespace rthv::stats
