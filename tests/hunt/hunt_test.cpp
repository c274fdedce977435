// Coverage-guided adversarial campaign tests (src/fault/hunt.hpp).
//
// Three guarantees are pinned here:
//  1. Falsifiability: against a weakened monitor (d_min/2 test hook) the
//     hunt finds an Eq. 14 oracle violation within a bounded budget, and
//     the minimized reproducer replays standalone -- fresh system, no
//     snapshot -- to the identical verdict.
//  2. Determinism: a hunt is a pure function of (config, seed); coverage
//     map, findings and reproducers are bit-identical for any --jobs value.
//  3. Guidance pays: the violating band (admitted gaps between the
//     weakened and the configured d_min) is only reachable by compounding
//     mutations from a count-1 seed flood, so corpus retention beats the
//     PR 4-style random campaign by >= 10x in simulated events.
#include "fault/hunt.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/hypervisor_system.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "workload/generators.hpp"

namespace rthv::fault {
namespace {

using sim::Duration;
using sim::TimePoint;

core::SystemConfig monitored_baseline() {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(1444);
  return cfg;
}

/// The pinned scenario: weakened monitor admits gaps down to 722us while
/// the oracle holds the configured 1444us, and the seed corpus is a SINGLE
/// raise at 3x d_min. No single mutation can produce two admitted raises
/// spaced inside (722us, 1444us) -- the start jitter (+-500us) stays below
/// the weakened d_min and one distance shrink from 4332us stays above the
/// configured one -- so reaching the band requires compounding mutations
/// retained through the corpus.
HuntConfig scenario(std::uint32_t jobs, bool guided, std::uint32_t generations,
                    std::int64_t weaken_divisor = 2,
                    std::uint64_t seed_count = 1) {
  HuntConfig cfg;
  cfg.make_system = [weaken_divisor] {
    auto system = std::make_unique<core::HypervisorSystem>(monitored_baseline());
    weaken_monitor_for_test(*system, 0, weaken_divisor);
    system->enable_tracing();
    return system;
  };
  InjectionSpec spec;
  spec.kind = FaultKind::kFlood;
  spec.source = 0;
  spec.start = TimePoint::at_us(12'000);
  spec.count = seed_count;
  spec.distance = Duration::us(4332);
  FaultPlan plan;
  plan.injections.push_back(spec);
  plan.horizon = Duration::ms(100);
  cfg.corpus.push_back(plan);
  cfg.fork.kind = HuntForkPoint::Kind::kTime;
  cfg.fork.time = TimePoint::at_us(10'000);
  cfg.horizon = Duration::ms(100);
  cfg.seed = 7;
  cfg.population = 8;
  cfg.generations = generations;
  cfg.jobs = jobs;
  cfg.coverage_guided = guided;
  return cfg;
}

/// The hunt_storm shape at a small budget: the *unweakened* monitored
/// baseline under an exponential background, seeded with the shipped storm
/// and adversary plans -- the same hunt as `rthv_hunt --baseline --corpus
/// configs/fault_storm.plan --corpus configs/fault_adversary.plan
/// --generations 4 --population 16 --horizon-ms 1000 --exp 1444 700`.
HuntConfig storm_adversary_scenario() {
  HuntConfig cfg;
  cfg.make_system = [] {
    auto system = std::make_unique<core::HypervisorSystem>(monitored_baseline());
    system->enable_tracing();
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 1);
    system->attach_trace(0, gen.generate(700));
    return system;
  };
  cfg.corpus.push_back(load_fault_plan_file(RTHV_CONFIG_DIR "/fault_storm.plan"));
  cfg.corpus.push_back(load_fault_plan_file(RTHV_CONFIG_DIR "/fault_adversary.plan"));
  cfg.fork.kind = HuntForkPoint::Kind::kTime;
  cfg.fork.time = TimePoint::at_us(10'000);
  cfg.horizon = Duration::ms(1000);
  cfg.seed = 1;
  cfg.generations = 4;
  cfg.population = 16;
  return cfg;
}

std::string plan_text(const FaultPlan& plan) {
  std::ostringstream out;
  save_fault_plan(out, plan);
  return out.str();
}

std::string report_text(const OracleReport& report) {
  std::ostringstream out;
  report.write(out);
  return out.str();
}

/// The guided hunt is re-used by several tests; run it once per process.
const HuntResult& guided_result() {
  static const HuntResult result = run_hunt(scenario(1, /*guided=*/true, 30));
  return result;
}

TEST(HuntTest, FindsWeakenedMonitorViolationWithinBudget) {
  const auto& result = guided_result();
  ASSERT_TRUE(result.found) << "30 generations x 8 candidates must suffice";
  EXPECT_FALSE(result.report.ok());
  EXPECT_GT(result.report.violations.size(), 0u);
  EXPECT_GT(result.report.worst_ratio, 1.0);
  EXPECT_GT(result.sim_events_at_find, 0u);
  EXPECT_LE(result.sim_events_at_find, result.sim_events);
  // Minimization keeps only what the violation needs, and nothing may be
  // scheduled into the already-executed prefix.
  ASSERT_FALSE(result.reproducer.plan.injections.empty());
  for (const auto& spec : result.reproducer.plan.injections) {
    EXPECT_GE(spec.start, TimePoint::at_us(10'000));
  }
}

TEST(HuntTest, ReproducerReplaysStandaloneToTheSameVerdict) {
  const auto& result = guided_result();
  ASSERT_TRUE(result.found);
  const auto cfg = scenario(1, /*guided=*/true, 30);
  const auto replay = replay_reproducer(cfg, result.reproducer);
  EXPECT_FALSE(replay.ok())
      << "a finding that only exists under snapshot/restore is a bug";
  EXPECT_EQ(report_text(replay), report_text(result.report))
      << "standalone replay must reproduce the identical violation";
}

TEST(HuntTest, HuntIsJobCountIndependent) {
  const auto sequential = run_hunt(scenario(1, /*guided=*/true, 12));
  const auto parallel = run_hunt(scenario(4, /*guided=*/true, 12));

  EXPECT_EQ(sequential.found, parallel.found);
  EXPECT_EQ(sequential.evaluations, parallel.evaluations);
  EXPECT_EQ(sequential.sim_events, parallel.sim_events);
  EXPECT_EQ(sequential.generations_run, parallel.generations_run);
  EXPECT_EQ(sequential.corpus_size, parallel.corpus_size);
  EXPECT_EQ(sequential.coverage.to_hex(), parallel.coverage.to_hex())
      << "coverage maps must be bit-identical for any job count";
  if (sequential.found) {
    EXPECT_EQ(sequential.reproducer.global_index, parallel.reproducer.global_index);
    EXPECT_EQ(sequential.reproducer.engine_seed, parallel.reproducer.engine_seed);
    EXPECT_EQ(plan_text(sequential.reproducer.plan),
              plan_text(parallel.reproducer.plan));
    EXPECT_EQ(report_text(sequential.report), report_text(parallel.report));
  }
}

TEST(HuntTest, CoverageGuidanceBeatsRandomCampaignTenfold) {
  const auto& guided = guided_result();
  ASSERT_TRUE(guided.found);

  // The PR 4-style baseline: same mutators, same budget accounting, but the
  // corpus never grows -- every candidate is one mutation from the seed.
  auto random_cfg = scenario(1, /*guided=*/false, 2000);
  random_cfg.event_budget = 10 * guided.sim_events_at_find;
  const auto random = run_hunt(random_cfg);

  EXPECT_TRUE(!random.found ||
              random.sim_events_at_find >= 10 * guided.sim_events_at_find)
      << "random campaign found the violation after "
      << random.sim_events_at_find << " events; guided needed "
      << guided.sim_events_at_find;
}

TEST(HuntTest, QuarterDminWeakeningFallsWithinTenGenerations) {
  // The ISSUE-pinned falsifiability budget: against d_min/4 the admitted
  // band is wide open (361us..1444us gaps all violate), so ten generations
  // from a 16-raise seed flood must find it -- and the reproducer must
  // carry the violation out of the snapshot sandbox.
  const auto cfg = scenario(1, /*guided=*/true, 10, /*weaken_divisor=*/4,
                            /*seed_count=*/16);
  const auto result = run_hunt(cfg);
  ASSERT_TRUE(result.found);
  EXPECT_FALSE(result.report.ok());
  const auto replay = replay_reproducer(cfg, result.reproducer);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(report_text(replay), report_text(result.report));
}

TEST(HuntTest, SlotBoundaryForkRunsThePrefixOnce) {
  auto cfg = scenario(1, /*guided=*/true, 1);
  cfg.population = 2;
  cfg.fork.kind = HuntForkPoint::Kind::kSlotBoundary;
  cfg.fork.boundary = 2;
  const auto result = run_hunt(cfg);
  EXPECT_GT(result.events_to_fork, 0u)
      << "the prefix up to the second TDMA switch costs events exactly once";
  EXPECT_EQ(result.evaluations, 2u);
}

TEST(HuntTest, SurplusJobsBuildNoExtraReplicas) {
  // Six jobs over four candidates: shards 4 and 5 would get no candidate,
  // so their replicas must never be built -- and the result must not move.
  const auto counted = [](std::uint32_t jobs, int* built) {
    auto cfg = scenario(jobs, /*guided=*/true, 3);
    cfg.population = 4;
    cfg.make_system = [inner = cfg.make_system, built] {
      ++*built;
      return inner();
    };
    return cfg;
  };
  int built_surplus = 0;
  int built_single = 0;
  const auto surplus = run_hunt(counted(6, &built_surplus));
  const auto single = run_hunt(counted(1, &built_single));
  EXPECT_EQ(built_surplus, 4);
  EXPECT_EQ(built_single, 1);

  EXPECT_EQ(surplus.found, single.found);
  EXPECT_EQ(surplus.evaluations, single.evaluations);
  EXPECT_EQ(surplus.sim_events, single.sim_events);
  EXPECT_EQ(surplus.sim_events_at_find, single.sim_events_at_find);
  EXPECT_EQ(surplus.events_to_fork, single.events_to_fork);
  EXPECT_EQ(surplus.generations_run, single.generations_run);
  EXPECT_EQ(surplus.corpus_size, single.corpus_size);
  EXPECT_EQ(surplus.coverage.to_hex(), single.coverage.to_hex());
  EXPECT_EQ(surplus.reproducer.global_index, single.reproducer.global_index);
  EXPECT_EQ(plan_text(surplus.reproducer.plan), plan_text(single.reproducer.plan));
  EXPECT_EQ(report_text(surplus.report), report_text(single.report));
}

TEST(HuntTest, StormAdversaryCoverageMatchesParent) {
  // Literals recorded with one CoverageMap::mark_point per trace record;
  // the table-driven mark_points must reproduce the map bit for bit.
  const auto result = run_hunt(storm_adversary_scenario());
  EXPECT_FALSE(result.found) << "the unweakened baseline must hold Eq. 14";
  EXPECT_EQ(result.coverage.to_hex(),
            "00007ecfc03f7fee000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000003800000000000000000000000000"
            "000000000000000000000800000000000000000000080000");
  EXPECT_EQ(result.corpus_size, 5u);
  EXPECT_EQ(result.evaluations, 64u);
  EXPECT_EQ(result.sim_events, 203074u);
}

TEST(HuntTest, RejectsUnusableConfigs) {
  HuntConfig cfg;  // no make_system, empty corpus, zero horizon
  EXPECT_THROW((void)run_hunt(cfg), std::invalid_argument);
  auto no_corpus = scenario(1, true, 1);
  no_corpus.corpus.clear();
  EXPECT_THROW((void)run_hunt(no_corpus), std::invalid_argument);
}

}  // namespace
}  // namespace rthv::fault
