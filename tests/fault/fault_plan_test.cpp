#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace rthv::fault {
namespace {

using sim::Duration;
using sim::TimePoint;

FaultPlan parse(const std::string& text) {
  std::istringstream in(text);
  return load_fault_plan(in);
}

TEST(FaultPlanTest, ParsesStormSection) {
  const auto plan = parse(
      "# comment\n"
      "[storm]\n"
      "source = 1\n"
      "start_ms = 50\n"
      "bursts = 20\n"
      "burst_len = 4\n"
      "distance_us = 1444\n"
      "period_ms = 40\n");
  ASSERT_EQ(plan.injections.size(), 1u);
  const auto& s = plan.injections[0];
  EXPECT_EQ(s.kind, FaultKind::kStorm);
  EXPECT_EQ(s.source, 1u);
  EXPECT_EQ(s.start, TimePoint::at_us(50'000));
  EXPECT_EQ(s.count, 20u);
  EXPECT_EQ(s.burst_len, 4u);
  EXPECT_EQ(s.distance, Duration::us(1444));
  EXPECT_EQ(s.period, Duration::us(40'000));
}

TEST(FaultPlanTest, ParsesCampaignHorizonAndComposedSections) {
  const auto plan = parse(
      "[campaign]\n"
      "horizon_ms = 2000\n"
      "\n"
      "[drift]\n"
      "drift_ppm = 200\n"
      "jitter_us = 20\n"
      "\n"
      "[adversary]\n"
      "source = 0\n"
      "count = 100\n"
      "probe_every = 8\n"
      "probe_under_us = 100\n");
  EXPECT_EQ(plan.horizon, Duration::ms(2000));
  ASSERT_EQ(plan.injections.size(), 2u);
  EXPECT_EQ(plan.injections[0].kind, FaultKind::kDrift);
  EXPECT_EQ(plan.injections[0].drift_ppm, 200);
  EXPECT_EQ(plan.injections[0].jitter, Duration::us(20));
  EXPECT_EQ(plan.injections[1].kind, FaultKind::kAdversary);
  EXPECT_EQ(plan.injections[1].probe_every, 8u);
  EXPECT_EQ(plan.injections[1].probe_under, Duration::us(100));
}

TEST(FaultPlanTest, SectionsMayRepeat) {
  const auto plan = parse(
      "[flood]\ncount = 10\ndistance_us = 5\n"
      "[flood]\nsource = 1\ncount = 20\ndistance_us = 7\n");
  ASSERT_EQ(plan.injections.size(), 2u);
  EXPECT_EQ(plan.injections[0].count, 10u);
  EXPECT_EQ(plan.injections[1].source, 1u);
  EXPECT_EQ(plan.injections[1].distance, Duration::us(7));
}

TEST(FaultPlanTest, UnknownSectionReportsLine) {
  try {
    parse("[storm]\nbursts = 1\ndistance_us = 1\n\n[meteor]\n");
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& e) {
    EXPECT_EQ(e.line(), 5u);
  }
}

TEST(FaultPlanTest, UnknownKeyForKindReportsLine) {
  // drift_ppm belongs to [drift], not [storm].
  try {
    parse("[storm]\nbursts = 1\ndistance_us = 1\ndrift_ppm = 5\n");
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& e) {
    EXPECT_EQ(e.line(), 4u);
  }
}

TEST(FaultPlanTest, MalformedNumberReportsLine) {
  EXPECT_THROW(parse("[flood]\ncount = many\ndistance_us = 1\n"),
               FaultPlanError);
}

TEST(FaultPlanTest, HorizonOutOfRangeReportsLine) {
  // A non-positive horizon used to read as "unset" and a huge one
  // overflowed the nanosecond conversion; both are errors on their line.
  for (const char* text : {
           "[campaign]\nhorizon_ms = -5\n",
           "[campaign]\nhorizon_ms = 0\n",
           "[campaign]\nhorizon_ms = 9223372036854775807\n",
           "[campaign]\nhorizon_s = 9223372037\n",
           "[campaign]\nhorizon_ms = 99999999999999999999\n",
       }) {
    try {
      (void)parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const FaultPlanError& e) {
      EXPECT_EQ(e.line(), 2u) << text;
    }
  }
  EXPECT_EQ(parse("[campaign]\nhorizon_s = 9223372036\n").horizon,
            Duration::s(9223372036));
}

TEST(FaultPlanTest, OutOfRangeValueReportsLine) {
  // Each used to load: a source index truncated to 32 bits, negative times
  // accepted, and a distance overflowing the nanosecond conversion (caught
  // only on the section's line by a misleading "needs distance_us > 0").
  for (const char* text : {
           "[flood]\nsource = 4294967296\ncount = 1\ndistance_us = 1\n",
           "[flood]\nstart_us = -100\ncount = 1\ndistance_us = 1\n",
           "[storm]\nperiod_ms = -5\nbursts = 1\n",
           "[drift]\njitter_us = -3\n",
           "[flood]\ndistance_us = 9223372036854775807\ncount = 1\n",
       }) {
    try {
      (void)parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const FaultPlanError& e) {
      EXPECT_EQ(e.line(), 2u) << text;
    }
  }
  EXPECT_EQ(parse("[drift]\ndrift_ppm = -200\n").injections[0].drift_ppm, -200);
}

TEST(FaultPlanTest, KeyOutsideAnySectionIsAnError) {
  EXPECT_THROW(parse("count = 3\n"), FaultPlanError);
}

TEST(FaultPlanTest, ValidationRejectsIncompleteSpecs) {
  // Repeated bursts without a period would all fire at one instant.
  EXPECT_THROW(parse("[storm]\nbursts = 5\n"), FaultPlanError);
  // Drift with neither skew nor jitter is a no-op plan entry.
  EXPECT_THROW(parse("[drift]\n"), FaultPlanError);
}

TEST(FaultPlanTest, SaveRoundTripsBitIdentically) {
  const std::string text =
      "[campaign]\n"
      "horizon_ms = 1000\n"
      "[storm]\n"
      "source = 0\n"
      "start_ms = 50\n"
      "bursts = 20\n"
      "burst_len = 4\n"
      "distance_us = 1444\n"
      "period_ms = 40\n"
      "[overrun]\n"
      "source = 0\n"
      "boundaries = 40\n"
      "lead_us = 30\n";
  const auto plan = parse(text);
  std::ostringstream out;
  save_fault_plan(out, plan);
  const auto reparsed = parse(out.str());
  ASSERT_EQ(reparsed.injections.size(), plan.injections.size());
  EXPECT_EQ(reparsed.horizon, plan.horizon);
  for (std::size_t i = 0; i < plan.injections.size(); ++i) {
    EXPECT_EQ(reparsed.injections[i].kind, plan.injections[i].kind) << i;
    EXPECT_EQ(reparsed.injections[i].start, plan.injections[i].start) << i;
    EXPECT_EQ(reparsed.injections[i].count, plan.injections[i].count) << i;
    EXPECT_EQ(reparsed.injections[i].distance, plan.injections[i].distance) << i;
  }
  // Saving the reparsed plan reproduces the first serialization exactly.
  std::ostringstream out2;
  save_fault_plan(out2, reparsed);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(FaultPlanTest, EveryKindHasAName) {
  for (std::uint8_t k = 0; k < static_cast<std::uint8_t>(FaultKind::kCount_); ++k) {
    EXPECT_FALSE(to_string(static_cast<FaultKind>(k)).empty());
  }
}

}  // namespace
}  // namespace rthv::fault
