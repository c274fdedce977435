#include "stats/latency_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/state_io.hpp"

namespace rthv::stats {
namespace {

using sim::Duration;

TEST(LatencyRecorderTest, RecordsPerClassAndOverall) {
  LatencyRecorder r;
  r.record(HandlingClass::kDirect, Duration::us(40));
  r.record(HandlingClass::kDirect, Duration::us(50));
  r.record(HandlingClass::kDelayed, Duration::us(8000));
  EXPECT_EQ(r.count(HandlingClass::kDirect), 2u);
  EXPECT_EQ(r.count(HandlingClass::kDelayed), 1u);
  EXPECT_EQ(r.count(HandlingClass::kInterposed), 0u);
  EXPECT_EQ(r.total(), 3u);
  EXPECT_EQ(r.of(HandlingClass::kDirect).mean(), Duration::us(45));
  EXPECT_EQ(r.all().max(), Duration::us(8000));
}

TEST(LatencyRecorderTest, Fractions) {
  LatencyRecorder r;
  r.record(HandlingClass::kDirect, Duration::us(1));
  r.record(HandlingClass::kInterposed, Duration::us(1));
  r.record(HandlingClass::kInterposed, Duration::us(1));
  r.record(HandlingClass::kDelayed, Duration::us(1));
  EXPECT_DOUBLE_EQ(r.fraction(HandlingClass::kDirect), 0.25);
  EXPECT_DOUBLE_EQ(r.fraction(HandlingClass::kInterposed), 0.5);
}

TEST(LatencyRecorderTest, FractionOfEmptyRecorderIsZero) {
  LatencyRecorder r;
  EXPECT_DOUBLE_EQ(r.fraction(HandlingClass::kDirect), 0.0);
}

TEST(LatencyRecorderTest, SummaryLineMentionsAllClasses) {
  LatencyRecorder r;
  r.record(HandlingClass::kInterposed, Duration::us(150));
  std::ostringstream os;
  r.write_summary(os);
  const auto text = os.str();
  EXPECT_NE(text.find("direct"), std::string::npos);
  EXPECT_NE(text.find("interposed"), std::string::npos);
  EXPECT_NE(text.find("delayed"), std::string::npos);
  EXPECT_NE(text.find("150"), std::string::npos);
}

TEST(LatencyRecorderTest, EmptySummaryDoesNotCrash) {
  LatencyRecorder r;
  std::ostringstream os;
  r.write_summary(os);
  EXPECT_NE(os.str().find("no IRQs"), std::string::npos);
}

/// `n` samples cycling through all four classes, with distinct latencies.
LatencyRecorder recorder_with(std::size_t n) {
  LatencyRecorder r;
  for (std::size_t i = 0; i < n; ++i) {
    r.record(static_cast<HandlingClass>(i % 4),
             Duration::ns(static_cast<std::int64_t>(1000 + 37 * i)));
  }
  return r;
}

std::vector<std::uint64_t> words_of(const LatencyRecorder& r) {
  sim::StateWriter w;
  r.snapshot_state(w);
  return w.take();
}

TEST(LatencyRecorderTest, StateRoundTripRestoresSamplesTagsAndCounts) {
  for (const std::size_t n : {0u, 1u, 1000u}) {
    const LatencyRecorder original = recorder_with(n);
    const auto words = words_of(original);

    LatencyRecorder restored = recorder_with(3);  // state to be replaced
    sim::StateReader r(words);
    restored.restore_state(r);
    EXPECT_TRUE(r.exhausted()) << n << " samples";
    EXPECT_EQ(restored.all().samples(), original.all().samples()) << n << " samples";
    EXPECT_EQ(restored.classes(), original.classes()) << n << " samples";
    for (const auto cls : {HandlingClass::kDirect, HandlingClass::kInterposed,
                           HandlingClass::kDelayed, HandlingClass::kDirectHw}) {
      EXPECT_EQ(restored.count(cls), original.count(cls)) << n << " samples";
    }
    EXPECT_EQ(restored.total(), n);
  }
}

TEST(LatencyRecorderTest, TruncatedStateStreamThrows) {
  for (const std::size_t n : {0u, 1u, 1000u}) {
    const auto words = words_of(recorder_with(n));
    for (const std::size_t keep : {std::size_t{0}, words.size() / 2, words.size() - 1}) {
      const std::vector<std::uint64_t> cut(words.begin(),
                                           words.begin() + static_cast<std::ptrdiff_t>(keep));
      LatencyRecorder restored;
      sim::StateReader r(cut);
      EXPECT_THROW(restored.restore_state(r), std::out_of_range)
          << n << " samples cut to " << keep << " words";
    }
  }
}

TEST(HandlingClassTest, Names) {
  EXPECT_EQ(to_string(HandlingClass::kDirect), "direct");
  EXPECT_EQ(to_string(HandlingClass::kInterposed), "interposed");
  EXPECT_EQ(to_string(HandlingClass::kDelayed), "delayed");
}

}  // namespace
}  // namespace rthv::stats
