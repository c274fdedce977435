#include "stats/export.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sim/time.hpp"

namespace rthv::stats {
namespace {

using sim::Duration;

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(ExportTest, WriteCsvFile) {
  const std::string path = ::testing::TempDir() + "/export_test.csv";
  write_csv_file(path, "a,b", {{"1", "2"}, {"3", "4"}});
  EXPECT_EQ(slurp(path), "a,b\n1,2\n3,4\n");
}

TEST(ExportTest, WriteCsvFileFailsOnBadPath) {
  EXPECT_THROW(write_csv_file("/nonexistent/dir/x.csv", "a", {}), std::runtime_error);
}

TEST(ExportTest, HistogramCsvRoundTrip) {
  obs::MetricsSnapshot::Histogram h;
  h.width_ns = Duration::us(10).count_ns();
  h.buckets.assign(2, 0);
  h.observe(Duration::us(5).count_ns());
  const std::string path = ::testing::TempDir() + "/export_hist.csv";
  write_histogram_csv(path, h);
  EXPECT_EQ(slurp(path), "bin_lo_us,bin_hi_us,count\n0,10,1\n10,20,0\n");
}

TEST(ExportTest, HistogramGnuplotScriptReferencesCsv) {
  const std::string dir = ::testing::TempDir();
  write_histogram_gnuplot(dir + "/fig.gp", dir + "/fig.csv", "My Title");
  const auto script = slurp(dir + "/fig.gp");
  EXPECT_NE(script.find("My Title"), std::string::npos);
  EXPECT_NE(script.find("fig.csv"), std::string::npos);
  EXPECT_NE(script.find("logscale"), std::string::npos);
  EXPECT_NE(script.find("with boxes"), std::string::npos);
}

TEST(ExportTest, SeriesGnuplotPlotsAllColumns) {
  const std::string dir = ::testing::TempDir();
  write_series_gnuplot(dir + "/series.gp", dir + "/series.csv", "Curves", 4);
  const auto script = slurp(dir + "/series.gp");
  // Columns 2..5 for 4 series.
  EXPECT_NE(script.find("using 1:2"), std::string::npos);
  EXPECT_NE(script.find("using 1:5"), std::string::npos);
  EXPECT_EQ(script.find("using 1:6"), std::string::npos);
}

}  // namespace
}  // namespace rthv::stats
