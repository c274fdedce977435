// Unit tests for core/checked.hpp: overflow detection at the int64 edges,
// ceil_div domain/edge behaviour, checked casts/rounding, and the
// always-compiled RTHV_INVARIANT contracts (fatal in debug, counted in
// release).
#include "core/checked.hpp"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace core = rthv::core;
using rthv::sim::Duration;
using rthv::sim::TimePoint;

namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(CheckedAdd, PassesThroughInRangeValues) {
  EXPECT_EQ(core::checked_add(std::int64_t{2}, std::int64_t{3}), 5);
  EXPECT_EQ(core::checked_add(kMax - 1, std::int64_t{1}), kMax);
  EXPECT_EQ(core::checked_add(kMin, kMax), -1);
}

TEST(CheckedAdd, ThrowsAtInt64Edges) {
  EXPECT_THROW((void)core::checked_add(kMax, std::int64_t{1}), core::TickOverflow);
  EXPECT_THROW((void)core::checked_add(kMin, std::int64_t{-1}), core::TickOverflow);
}

TEST(CheckedSub, ThrowsAtInt64Edges) {
  EXPECT_EQ(core::checked_sub(kMin + 1, std::int64_t{1}), kMin);
  EXPECT_THROW((void)core::checked_sub(kMin, std::int64_t{1}), core::TickOverflow);
  EXPECT_THROW((void)core::checked_sub(kMax, std::int64_t{-1}), core::TickOverflow);
}

TEST(CheckedMul, ThrowsAtInt64Edges) {
  EXPECT_EQ(core::checked_mul(std::int64_t{1} << 31, std::int64_t{1} << 31),
            std::int64_t{1} << 62);
  EXPECT_THROW((void)core::checked_mul(kMax, std::int64_t{2}), core::TickOverflow);
  EXPECT_THROW((void)core::checked_mul(kMax / 2 + 1, std::int64_t{2}),
               core::TickOverflow);
  // INT64_MIN * -1 is the one product of magnitude-1 factors that overflows.
  EXPECT_THROW((void)core::checked_mul(kMin, std::int64_t{-1}), core::TickOverflow);
}

TEST(CheckedMul, Unsigned64) {
  constexpr std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(core::checked_mul(std::uint64_t{3}, std::uint64_t{4}), 12u);
  EXPECT_THROW((void)core::checked_mul(umax, std::uint64_t{2}), core::TickOverflow);
  EXPECT_THROW((void)core::checked_add(umax, std::uint64_t{1}), core::TickOverflow);
}

TEST(CeilDiv, ExactMultiplesDoNotRoundUp) {
  EXPECT_EQ(core::ceil_div(std::int64_t{12}, std::int64_t{4}), 3);
  EXPECT_EQ(core::ceil_div(std::int64_t{0}, std::int64_t{7}), 0);
  EXPECT_EQ(core::ceil_div(kMax, std::int64_t{1}), kMax);
}

TEST(CeilDiv, RoundsTowardPositiveInfinity) {
  EXPECT_EQ(core::ceil_div(std::int64_t{13}, std::int64_t{4}), 4);
  EXPECT_EQ(core::ceil_div(std::int64_t{1}, std::int64_t{1000}), 1);
  // Negative numerators: mathematical ceiling, i.e. toward zero.
  EXPECT_EQ(core::ceil_div(std::int64_t{-13}, std::int64_t{4}), -3);
  EXPECT_EQ(core::ceil_div(std::int64_t{-12}, std::int64_t{4}), -3);
}

TEST(CeilDiv, NoOverflowNearInt64Max) {
  // The textbook (a + b - 1) / b form would wrap here.
  EXPECT_EQ(core::ceil_div(kMax, std::int64_t{2}), kMax / 2 + 1);
  EXPECT_EQ(core::ceil_div(kMax - 1, kMax), 1);
}

TEST(CeilDiv, NonPositiveDivisorIsDomainError) {
  EXPECT_THROW((void)core::ceil_div(std::int64_t{5}, std::int64_t{0}),
               core::TickDomainError);
  EXPECT_THROW((void)core::ceil_div(std::int64_t{5}, std::int64_t{-1}),
               core::TickDomainError);
}

TEST(CheckedCast, RangeChecks) {
  EXPECT_EQ(core::checked_cast<std::uint32_t>(std::int64_t{7}), 7u);
  EXPECT_EQ(core::checked_cast<std::int64_t>(std::uint64_t{kMax}), kMax);
  EXPECT_THROW((void)core::checked_cast<std::uint32_t>(std::int64_t{-1}),
               core::TickDomainError);
  EXPECT_THROW((void)core::checked_cast<std::int64_t>(
                   std::numeric_limits<std::uint64_t>::max()),
               core::TickDomainError);
  EXPECT_THROW((void)core::checked_cast<std::int32_t>(kMax), core::TickDomainError);
}

TEST(CheckedRoundNs, RoundsToNearestTick) {
  EXPECT_EQ(core::checked_round_ns(2.4), 2);
  EXPECT_EQ(core::checked_round_ns(2.5), 3);
  EXPECT_EQ(core::checked_round_ns(-2.5), -3);
  EXPECT_EQ(core::checked_round_ns(0.0), 0);
}

TEST(CheckedRoundNs, RejectsNanAndOutOfRange) {
  EXPECT_THROW((void)core::checked_round_ns(std::numeric_limits<double>::quiet_NaN()),
               core::TickOverflow);
  EXPECT_THROW((void)core::checked_round_ns(1e19), core::TickOverflow);
  EXPECT_THROW((void)core::checked_round_ns(-1e19), core::TickOverflow);
  EXPECT_THROW((void)core::checked_round_ns(std::numeric_limits<double>::infinity()),
               core::TickOverflow);
}

TEST(CheckedDuration, TickOverloadsMatchRawSemantics) {
  const Duration a = Duration::ms(3);
  const Duration b = Duration::us(500);
  EXPECT_EQ(core::checked_add(a, b), a + b);
  EXPECT_EQ(core::checked_sub(a, b), a - b);
  EXPECT_EQ(core::checked_mul(a, std::int64_t{4}), a * 4);
  EXPECT_EQ(core::checked_mul(a, std::uint64_t{4}), a * 4);
  EXPECT_EQ(core::checked_add(TimePoint::at_ns(10), b), TimePoint::at_ns(10) + b);
  EXPECT_EQ(core::ceil_div(Duration::ns(13), Duration::ns(4)), 4);
}

TEST(CheckedDuration, ThrowsInsteadOfWrapping) {
  EXPECT_THROW((void)core::checked_add(Duration::max(), Duration::ns(1)),
               core::TickOverflow);
  EXPECT_THROW((void)core::checked_mul(Duration::s(300), std::int64_t{1} << 32),
               core::TickOverflow);
  EXPECT_THROW((void)core::checked_mul(Duration::ns(1),
                                       std::numeric_limits<std::uint64_t>::max()),
               core::TickDomainError);
  EXPECT_THROW((void)core::ceil_div(Duration::ns(5), Duration::zero()),
               core::TickDomainError);
}

TEST(CheckedErrors, MessagesNameTheContext) {
  try {
    (void)core::checked_mul(kMax, std::int64_t{2}, "analysis/test-context");
    FAIL() << "expected TickOverflow";
  } catch (const core::TickOverflow& e) {
    EXPECT_NE(std::string(e.what()).find("analysis/test-context"), std::string::npos);
  }
}

TEST(InvariantCounters, CountValueTotalSnapshotReset) {
  auto& reg = core::InvariantCounters::instance();
  reg.reset();
  EXPECT_EQ(reg.total(), 0u);
  reg.count("test/alpha");
  reg.count("test/alpha");
  reg.count("test/beta");
  EXPECT_EQ(reg.value("test/alpha"), 2u);
  EXPECT_EQ(reg.value("test/beta"), 1u);
  EXPECT_EQ(reg.value("test/unknown"), 0u);
  EXPECT_EQ(reg.total(), 3u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "test/alpha");
  EXPECT_EQ(snap[0].second, 2u);
  reg.reset();
  EXPECT_EQ(reg.total(), 0u);
}

TEST(InvariantCounters, PublishesAsObsMetrics) {
  auto& reg = core::InvariantCounters::instance();
  reg.reset();
  reg.count("test/published");
  reg.count("test/published");
  rthv::obs::MetricsSnapshot snap;
  reg.publish(snap);
  EXPECT_EQ(snap.counter_value("invariant/violations/test/published"), 2u);
  reg.reset();
}

#ifdef NDEBUG
TEST(Contracts, ReleaseModeCountsInsteadOfAborting) {
  auto& reg = core::InvariantCounters::instance();
  reg.reset();
  RTHV_INVARIANT(1 + 1 == 3, "test/release-invariant");
  RTHV_PRECONDITION(false, "test/release-precondition");
  RTHV_INVARIANT(true, "test/never-hit");
  EXPECT_EQ(reg.value("test/release-invariant"), 1u);
  EXPECT_EQ(reg.value("test/release-precondition"), 1u);
  EXPECT_EQ(reg.value("test/never-hit"), 0u);
  reg.reset();
}
#else
TEST(ContractsDeathTest, DebugModeAbortsWithContractName) {
  EXPECT_DEATH(RTHV_INVARIANT(false, "test/debug-invariant"),
               "invariant 'test/debug-invariant' violated");
  EXPECT_DEATH(RTHV_PRECONDITION(false, "test/debug-precondition"),
               "precondition 'test/debug-precondition' violated");
}

TEST(Contracts, DebugModePassingConditionIsSilent) {
  RTHV_INVARIANT(2 + 2 == 4, "test/debug-pass");
  RTHV_PRECONDITION(true, "test/debug-pass");
}
#endif

}  // namespace
