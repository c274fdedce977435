#include "analysis/irq_latency.hpp"

#include <gtest/gtest.h>

namespace rthv::analysis {
namespace {

using sim::Duration;

// The paper's evaluation platform constants (Section 6).
OverheadTimes paper_overheads() {
  return OverheadTimes{
      Duration::ns(640),    // C_Mon: 128 instr @ 5 ns
      Duration::ns(4385),   // C_sched: 877 instr
      Duration::us(50),     // C_ctx: 5000 instr + 5000 cycles
  };
}

TdmaModel paper_tdma() {
  return TdmaModel{Duration::us(14000), Duration::us(6000)};
}

IrqSourceModel paper_source(Duration d_min) {
  return IrqSourceModel{make_sporadic(d_min), Duration::us(5), Duration::us(40)};
}

TEST(EffectiveCostsTest, Eq13AndEq15) {
  const auto oh = paper_overheads();
  // Eq. 13: C'_BH = 40 + 4.385 + 2*50 = 144.385 us.
  EXPECT_EQ(effective_bottom_cost(Duration::us(40), oh), Duration::ns(144'385));
  // Eq. 15: C'_TH = 5 + 0.64 = 5.64 us.
  EXPECT_EQ(effective_top_cost(Duration::us(5), oh), Duration::ns(5'640));
}

TEST(TdmaInterferenceTest, Eq8) {
  const auto tdma = paper_tdma();
  // One cycle of blocking: T_TDMA - T_i = 8000 us.
  EXPECT_EQ(tdma_interference(Duration::us(1), tdma), Duration::us(8000));
  EXPECT_EQ(tdma_interference(Duration::us(14000), tdma), Duration::us(8000));
  EXPECT_EQ(tdma_interference(Duration::us(14001), tdma), Duration::us(16000));
  EXPECT_EQ(tdma_interference(Duration::zero(), tdma), Duration::zero());
}

TEST(InterposedInterferenceTest, Eq14) {
  const Duration c_bh_eff = Duration::ns(144'385);
  const Duration d_min = Duration::us(1000);
  EXPECT_EQ(interposed_interference(Duration::us(1), d_min, c_bh_eff), c_bh_eff);
  EXPECT_EQ(interposed_interference(Duration::us(1000), d_min, c_bh_eff), c_bh_eff);
  EXPECT_EQ(interposed_interference(Duration::us(2500), d_min, c_bh_eff),
            c_bh_eff * 3);
  EXPECT_EQ(interposed_interference(Duration::zero(), d_min, c_bh_eff),
            Duration::zero());
}

TEST(InterposedInterferenceTest, VectorGeneralization) {
  // Monitoring condition: consecutive >= 100us AND any 3 span >= 1000us.
  const VectorModel delta({Duration::us(100), Duration::us(1000)});
  const Duration c = Duration::us(10);
  // In 1000us at most 2 admissions (delta(3) = 1000 not < 1000).
  EXPECT_EQ(interposed_interference(Duration::us(1000), delta, c), c * 2);
  EXPECT_EQ(interposed_interference(Duration::us(1001), delta, c), c * 3);
  // The vector bound is tighter than the pure d_min bound would be.
  EXPECT_LT(interposed_interference(Duration::us(1000), delta, c),
            interposed_interference(Duration::us(1000), Duration::us(100), c));
}

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

TEST(WindowCountInterferenceTest, FormulaMatchesDefinition) {
  const Duration c = Duration::us(50);
  // One window fits twice (straddling): (ceil(1/1000)+1) * 2 admissions.
  EXPECT_EQ(window_count_interference(Duration::us(1), Duration::us(1000), 2, c),
            c * 4);
  EXPECT_EQ(window_count_interference(Duration::us(2000), Duration::us(1000), 2, c),
            c * 6);
  EXPECT_EQ(window_count_interference(Duration::zero(), Duration::us(1000), 2, c),
            Duration::zero());
}

TEST(TdmaLatencyTest, DominatedByTdmaCycle) {
  // Paper Section 4: with C_TH, C_BH << T_TDMA - T_i the worst-case latency
  // is dominated by the TDMA blocking term.
  const auto r = tdma_latency(paper_source(Duration::us(14'400)), {}, paper_tdma(),
                              paper_overheads(), false);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(r->worst_case, Duration::us(8000));
  EXPECT_LT(r->worst_case, Duration::us(14000));
}

TEST(TdmaLatencyTest, MonitoringAddsTopHandlerCost) {
  const auto src = paper_source(Duration::us(14'400));
  const auto without = tdma_latency(src, {}, paper_tdma(), paper_overheads(), false);
  const auto with = tdma_latency(src, {}, paper_tdma(), paper_overheads(), true);
  ASSERT_TRUE(without && with);
  EXPECT_GE(with->worst_case, without->worst_case);
  EXPECT_LE(with->worst_case, without->worst_case + Duration::us(1));
}

TEST(InterposedLatencyTest, IndependentOfTdmaAndMuchSmaller) {
  const auto src = paper_source(Duration::us(1444));
  const auto interposed = interposed_latency(src, {}, paper_overheads());
  const auto delayed = tdma_latency(src, {}, paper_tdma(), paper_overheads(), true);
  ASSERT_TRUE(interposed && delayed);
  // Eq. 16 has no TDMA term: W(1) = C'_BH + C'_TH = 144.385 + 5.64 us.
  EXPECT_EQ(interposed->worst_case, Duration::ns(150'025));
  // The paper's headline: interposed WCRT is far below the TDMA-bound one.
  EXPECT_LT(interposed->worst_case * 10, delayed->worst_case);
}

TEST(InterposedLatencyTest, OtherTopHandlersInterfere) {
  const auto src = paper_source(Duration::us(1444));
  std::vector<IrqSourceModel> others;
  others.push_back(IrqSourceModel{make_sporadic(Duration::us(100)),
                                  Duration::us(5), Duration::us(40)});
  const auto alone = interposed_latency(src, {}, paper_overheads());
  const auto contended = interposed_latency(src, others, paper_overheads());
  ASSERT_TRUE(alone && contended);
  EXPECT_GT(contended->worst_case, alone->worst_case);
}

TEST(InterposedLatencyTest, DivergesWhenDminTooSmall) {
  // C'_BH = 144.385us every 100us is > 100% load.
  const auto r = interposed_latency(paper_source(Duration::us(100)), {},
                                    paper_overheads());
  EXPECT_FALSE(r.has_value());
}

TEST(TdmaLatencyTest, DenseArrivalsGrowBusyPeriod) {
  // d_min = 5000us < worst-case latency: several activations per busy
  // period, and the analysis must still converge (service 40us per 5000us
  // is far below the subscriber's slot share).
  const auto r = tdma_latency(paper_source(Duration::us(5000)), {}, paper_tdma(),
                              paper_overheads(), false);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->q_max, 1u);
}

}  // namespace
}  // namespace rthv::analysis
