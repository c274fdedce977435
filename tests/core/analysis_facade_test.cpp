#include "core/analysis_facade.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/config_loader.hpp"

namespace rthv::core {
namespace {

using sim::Duration;

TEST(AnalysisFacadeTest, OverheadTimesMatchPaperPlatform) {
  const AnalysisFacade facade(SystemConfig::paper_baseline());
  const auto oh = facade.overhead_times();
  EXPECT_EQ(oh.c_mon, Duration::ns(640));
  EXPECT_EQ(oh.c_sched, Duration::ns(4385));
  EXPECT_EQ(oh.c_ctx, Duration::us(50));
}

TEST(AnalysisFacadeTest, TdmaModelUsesSubscriberSlot) {
  const AnalysisFacade facade(SystemConfig::paper_baseline());
  const auto tdma = facade.tdma_model(0);
  EXPECT_EQ(tdma.cycle, Duration::us(14000));
  EXPECT_EQ(tdma.slot, Duration::us(6000));
}

TEST(AnalysisFacadeTest, SourceModelCarriesCosts) {
  // C_TH = 5us and C_BH = 40us reach both constants and the Eq. 16 bound:
  // one sparse activation costs C'_TH + C'_BH = 5.64 + 144.385 us.
  const AnalysisFacade facade(SystemConfig::paper_baseline());
  EXPECT_EQ(facade.effective_bottom_cost(0), Duration::ns(144'385));
  EXPECT_EQ(facade.interposition_pre_cost(), Duration::ns(54'385));
  const auto cmp = facade.compare(0, analysis::make_sporadic(Duration::us(1444)), true);
  ASSERT_TRUE(cmp.interposed.has_value());
  EXPECT_EQ(cmp.interposed->worst_case, Duration::ns(150'025));
}

TEST(AnalysisFacadeTest, CompareShowsTheHeadlineResult) {
  // With conforming d_min arrivals the interposed WCRT is far below the
  // TDMA-delayed WCRT (the paper's central claim).
  const AnalysisFacade facade(SystemConfig::paper_baseline());
  const auto cmp =
      facade.compare(0, analysis::make_sporadic(Duration::us(1444)), true);
  ASSERT_TRUE(cmp.tdma_delayed.has_value());
  ASSERT_TRUE(cmp.interposed.has_value());
  EXPECT_GE(cmp.tdma_delayed->worst_case, Duration::us(8000));
  EXPECT_LT(cmp.interposed->worst_case, Duration::us(200));
}

SystemConfig two_sources() {
  auto cfg = SystemConfig::paper_baseline();
  auto second = cfg.sources[0];
  second.name = "other";
  cfg.sources.push_back(second);
  return cfg;
}

TEST(AnalysisFacadeTest, InterferersSkipAnalyzedSource) {
  const AnalysisFacade facade(two_sources());
  // Entry 0 is the analyzed source's own slot: as an interferer its 1us
  // distance would overload the CPU and the bound would diverge.
  const std::vector<Activation> acts{analysis::make_sporadic(Duration::us(1)),
                                     analysis::make_sporadic(Duration::us(2000))};
  const auto own = analysis::make_sporadic(Duration::us(1444));
  const auto cmp = facade.compare(0, own, true, acts);
  ASSERT_TRUE(cmp.interposed.has_value());
  // Eq. 16 plus one interfering top handler (eta_j(W) = 1, C_THj = 5us).
  EXPECT_EQ(cmp.interposed->worst_case, Duration::ns(155'025));
  EXPECT_EQ(facade.compare(0, own, true).interposed->worst_case, Duration::ns(150'025));
}

TEST(AnalysisFacadeTest, CompareRejectsActivationCountMismatch) {
  const AnalysisFacade facade(two_sources());
  const auto act = analysis::make_sporadic(Duration::us(2000));
  EXPECT_THROW((void)facade.compare(0, act, true, {act}), std::invalid_argument);
  EXPECT_THROW((void)facade.compare(0, act, true, {act, act, act}), std::invalid_argument);
}

TEST(AnalysisFacadeTest, OutOfRangeSourceThrows) {
  const AnalysisFacade facade(SystemConfig::paper_baseline());
  const auto act = analysis::make_sporadic(Duration::us(1));
  EXPECT_THROW((void)facade.tdma_model(3), std::invalid_argument);
  EXPECT_THROW((void)facade.compare(3, act, true), std::invalid_argument);
  EXPECT_THROW((void)facade.effective_bottom_cost(3), std::invalid_argument);
  EXPECT_THROW((void)facade.interference(3, Duration::us(1)), std::invalid_argument);
}

// --- TDMA model of the schedule the hypervisor runs -------------------------

TEST(AnalysisFacadeTest, TdmaModelSumsSplitSlots) {
  // configs/split_slots.ini: the subscriber owns two 3000us slots per
  // 14000us cycle and pays the slot-entry overhead (tick + C_ctx) in each.
  const AnalysisFacade facade(load_config_file(std::string(RTHV_CONFIG_DIR) +
                                               "/split_slots.ini"));
  const auto tdma = facade.tdma_model(0);
  EXPECT_EQ(tdma.cycle, Duration::us(14000));
  EXPECT_EQ(tdma.slot, Duration::us(6000));
  EXPECT_EQ(tdma.entry_overhead, Duration::ns(2 * 50'500));
}

TEST(AnalysisFacadeTest, TdmaModelIgnoresSlotLengthUnderSchedule) {
  auto cfg = SystemConfig::paper_baseline();
  cfg.partitions[1].slot_length = Duration::us(12000);  // unused: [slot] rules
  cfg.schedule = {{0, Duration::us(6000)}, {1, Duration::us(2000)}, {2, Duration::us(6000)}};
  const auto tdma = AnalysisFacade(cfg).tdma_model(0);
  EXPECT_EQ(tdma.cycle, Duration::us(14000));
  EXPECT_EQ(tdma.slot, Duration::us(2000));
  EXPECT_EQ(tdma.entry_overhead, Duration::ns(50'500));
}

TEST(AnalysisFacadeTest, TdmaModelRejectsSubscriberWithoutSlot) {
  auto cfg = SystemConfig::paper_baseline();
  cfg.schedule = {{0, Duration::us(6000)}, {2, Duration::us(2000)}};
  const AnalysisFacade facade(cfg);
  EXPECT_THROW((void)facade.tdma_model(0), std::invalid_argument);
  EXPECT_THROW((void)facade.compare(0, analysis::make_sporadic(Duration::us(2000)), false),
               std::invalid_argument);
}

// --- admission curve per MonitorKind ----------------------------------------

constexpr std::int64_t kBhEffNs = 144'385;  // C'_BH of the 40us baseline source

Duration bh(std::int64_t n) { return Duration::ns(kBhEffNs * n); }

std::optional<Duration> curve(const SystemConfig& cfg, std::int64_t dt_us) {
  return AnalysisFacade(cfg).interference(0, Duration::us(dt_us));
}

TEST(AnalysisFacadeTest, DeltaMinCurveIsEq14) {
  const auto cfg = load_config_file(std::string(RTHV_CONFIG_DIR) + "/paper_baseline.ini");
  ASSERT_EQ(cfg.sources[0].monitor, MonitorKind::kDeltaMin);  // d_min = 1444us
  EXPECT_EQ(curve(cfg, 0), Duration::zero());
  EXPECT_EQ(curve(cfg, 1), bh(1));
  EXPECT_EQ(curve(cfg, 1444), bh(1));
  EXPECT_EQ(curve(cfg, 1445), bh(2));
  EXPECT_EQ(curve(cfg, 14000), bh(10));  // ceil(14000 / 1444)
}

TEST(AnalysisFacadeTest, TokenBucketCurve) {
  const auto cfg = load_config_file(std::string(RTHV_CONFIG_DIR) + "/token_bucket.ini");
  ASSERT_EQ(cfg.sources[0].monitor, MonitorKind::kTokenBucket);  // 1444us, depth 3
  EXPECT_EQ(curve(cfg, 0), Duration::zero());
  EXPECT_EQ(curve(cfg, 1), bh(3 + 1));
  EXPECT_EQ(curve(cfg, 1445), bh(3 + 2));
  EXPECT_EQ(curve(cfg, 14000), bh(3 + 10));
}

TEST(AnalysisFacadeTest, DeltaVectorCurveUsesTheWholeVector) {
  auto cfg = SystemConfig::paper_baseline();
  cfg.sources[0].monitor = MonitorKind::kDeltaVector;
  cfg.sources[0].delta_vector = {Duration::us(1000), Duration::us(3000), Duration::us(4000)};
  // At most q events fit a window dt iff delta^-(q) < dt.
  EXPECT_EQ(curve(cfg, 0), Duration::zero());
  EXPECT_EQ(curve(cfg, 1000), bh(1));
  EXPECT_EQ(curve(cfg, 1001), bh(2));
  EXPECT_EQ(curve(cfg, 3000), bh(2));  // d_min alone would allow 3
  EXPECT_EQ(curve(cfg, 3001), bh(3));
  EXPECT_EQ(curve(cfg, 4001), bh(4));
}

TEST(AnalysisFacadeTest, WindowCountCurve) {
  auto cfg = SystemConfig::paper_baseline();
  cfg.sources[0].monitor = MonitorKind::kWindowCount;
  cfg.sources[0].d_min = Duration::us(2000);  // the window
  cfg.sources[0].window_events = 3;
  EXPECT_EQ(curve(cfg, 0), Duration::zero());
  EXPECT_EQ(curve(cfg, 1), bh((1 + 1) * 3));
  EXPECT_EQ(curve(cfg, 2000), bh((1 + 1) * 3));
  EXPECT_EQ(curve(cfg, 2001), bh((2 + 1) * 3));
  EXPECT_EQ(curve(cfg, 14000), bh((7 + 1) * 3));
}

TEST(AnalysisFacadeTest, UnboundedKindsHaveNoCurve) {
  auto cfg = SystemConfig::paper_baseline();
  ASSERT_EQ(cfg.sources[0].monitor, MonitorKind::kNone);
  EXPECT_FALSE(curve(cfg, 14000).has_value());
  cfg.sources[0].monitor = MonitorKind::kLearning;
  cfg.sources[0].delta_vector = {Duration::us(1000), Duration::us(2000)};
  EXPECT_FALSE(curve(cfg, 14000).has_value());
}

}  // namespace
}  // namespace rthv::core
