// Contracts of the campaign engine (BatchRunner over an optional
// SystemPool):
//
//  - both map() entry points return results in run-index order, run every
//    index exactly once for any jobs/chunk combination (including a
//    20x-imbalanced cost split), and rethrow the lowest-index failure;
//  - jobs == 1 runs inline on the caller, more jobs run off it;
//  - warm-start soundness: a pooled system recycled by clear_traces() +
//    restore(pristine) is bit-identical to a cold-constructed system for
//    the same workload, across many seeds and across mid-campaign slot
//    recycling, and the pooled map equals the construct-per-run map;
//  - jobs-identity: campaign results are bit-identical for any jobs/chunk
//    combination.
#include "exp/batch_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "exp/seed.hpp"
#include "exp/system_pool.hpp"
#include "obs/exporters.hpp"
#include "obs/trace_ring.hpp"
#include "workload/generators.hpp"

namespace rthv::exp {
namespace {

core::SystemConfig monitored_config() {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = sim::Duration::us(1444);
  return cfg;
}

// Runs one seeded workload on `system` and renders everything observable
// about the run -- merged metrics, latency summary, executed event count and
// every completion record -- so two digests match only if the simulations
// were bit-identical.
std::string run_digest(core::HypervisorSystem& system, std::uint64_t seed) {
  system.keep_completions(true);
  workload::ExponentialTraceGenerator gen(sim::Duration::us(700), seed,
                                          sim::Duration::us(100));
  system.attach_trace(0, gen.generate(40));
  const std::uint64_t completed = system.run(sim::Duration::s(1000));
  std::ostringstream os;
  os << completed << '|' << system.simulator().executed_events() << '|';
  system.recorder().write_summary(os);
  system.metrics_snapshot().write_json(os);
  for (const auto& c : system.completions()) {
    os << ';' << c.source << ',' << static_cast<int>(c.handling) << ','
       << c.latency().count_ns();
  }
  return os.str();
}

// --- scheduler --------------------------------------------------------------

TEST(BatchRunnerTest, HardwareJobsIsPositive) { EXPECT_GE(hardware_jobs(), 1u); }

TEST(BatchRunnerTest, ZeroJobsMeansHardwareJobs) {
  EXPECT_EQ(BatchRunner(BatchOptions{.jobs = 0}).jobs(), hardware_jobs());
}

TEST(BatchRunnerTest, ZeroJobsAndChunkStillRunEveryIndex) {
  BatchRunner runner(BatchOptions{.jobs = 0, .chunk = 0});
  const auto results = runner.map(5, [](std::size_t i) { return i; });
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(results[i], i);
}

TEST(BatchRunnerTest, MapReturnsOnlyAfterEveryRunFinished) {
  std::atomic<int> done{0};
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 1});
  runner.map(200, [&done](std::size_t) { return done.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(done.load(), 200);
}

TEST(BatchRunnerTest, SlowRunDoesNotStarveLaterOnes) {
  std::atomic<int> done{0};
  BatchRunner runner(BatchOptions{.jobs = 2, .chunk = 1});
  runner.map(11, [&done](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 11);
}

TEST(BatchRunnerTest, SingleJobRunsInlineInIndexOrder) {
  BatchRunner runner(BatchOptions{.jobs = 1, .chunk = 3});
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const auto on_caller = runner.map(10, [&](std::size_t i) {
    order.push_back(i);  // unsynchronized on purpose: one thread only
    return std::this_thread::get_id() == caller;
  });
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(on_caller[i]) << "run " << i << " left the calling thread";
    ASSERT_LT(i, order.size());
    EXPECT_EQ(order[i], i);
  }
}

TEST(BatchRunnerTest, WorkersRunOffTheCallingThread) {
  BatchRunner runner(BatchOptions{.jobs = 2, .chunk = 1});
  const auto caller = std::this_thread::get_id();
  const auto on_caller =
      runner.map(8, [caller](std::size_t) { return std::this_thread::get_id() == caller; });
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(on_caller[i]) << "run " << i;
}

TEST(BatchRunnerTest, ResultsOrderedByIndexRegardlessOfFinishOrder) {
  BatchRunner runner(BatchOptions{.jobs = 8, .chunk = 1});
  // Early indices sleep longest, so late indices finish first; the output
  // must still come back in index order.
  const auto results = runner.map(16, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
    return i * i;
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(BatchRunnerTest, SequentialAndParallelAgree) {
  const auto run = [](std::size_t jobs) {
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 1});
    return runner.map(10, [](std::size_t i) { return 1000 + i * 7; });
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(BatchRunnerTest, EmptyAndSingletonCounts) {
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 1});
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
  const auto one = runner.map(1, [](std::size_t i) { return i + 99; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 99u);
}

// Every index in [0, count) runs exactly once and lands in its own slot, on
// both entry points, for every jobs x chunk x count combination.
TEST(BatchRunnerTest, EveryIndexRunsExactlyOnce) {
  SystemPool pool(monitored_config());
  constexpr std::size_t kJobs[] = {1, 2, 4, 16};
  constexpr std::size_t kChunks[] = {1, 3, 16};
  constexpr std::size_t kCounts[] = {0, 1, 17, 1000};
  for (const std::size_t jobs : kJobs) {
    for (const std::size_t chunk : kChunks) {
      for (const std::size_t count : kCounts) {
        BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = chunk});
        std::vector<std::atomic<int>> hits(count);
        const auto plain = runner.map(count, [&hits](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          return i;
        });
        const auto pooled =
            runner.map(pool, count, [&hits](std::size_t i, core::HypervisorSystem&) {
              hits[i].fetch_add(1, std::memory_order_relaxed);
              return i;
            });
        ASSERT_EQ(plain.size(), count);
        ASSERT_EQ(pooled.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(hits[i].load(), 2) << "jobs " << jobs << " chunk " << chunk
                                       << " count " << count << " index " << i;
          EXPECT_EQ(plain[i], i);
          EXPECT_EQ(pooled[i], i);
        }
      }
    }
  }
}

// Runs in the first half of the index range simulate 20x more IRQs than in
// the second half: whichever worker draws the heavy chunks, every index
// still runs exactly once and the results match the sequential campaign.
TEST(BatchRunnerTest, EveryIndexRunsExactlyOnceUnderImbalancedCost) {
  constexpr std::size_t kRuns = 64;
  const auto campaign = [](std::size_t jobs, std::size_t chunk,
                           std::vector<std::atomic<int>>& hits) {
    SystemPool pool(monitored_config());
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = chunk});
    return runner.map(pool, kRuns, [&hits](std::size_t i, core::HypervisorSystem& system) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      workload::ExponentialTraceGenerator gen(sim::Duration::us(444), 2014 + i);
      system.attach_trace(0, gen.generate(i < kRuns / 2 ? 40 : 2));
      return system.run(sim::Duration::s(1000));
    });
  };
  std::vector<std::atomic<int>> reference_hits(kRuns);
  const auto reference = campaign(1, 16, reference_hits);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}}) {
      std::vector<std::atomic<int>> hits(kRuns);
      EXPECT_EQ(campaign(jobs, chunk, hits), reference)
          << "jobs " << jobs << " chunk " << chunk;
      for (std::size_t i = 0; i < kRuns; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

int fail_at_3_and_7(std::size_t i) {
  if (i == 3 || i == 7) throw std::runtime_error("run " + std::to_string(i));
  return 0;
}

TEST(BatchRunnerTest, ConstructPerRunMapRethrowsLowestIndexFailure) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 1});
    try {
      runner.map(12, fail_at_3_and_7);
      FAIL() << "expected exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 3") << "jobs=" << jobs;
    }
  }
}

TEST(BatchRunnerTest, RethrowsLowestIndexFailure) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    SystemPool pool(monitored_config());
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 2});
    try {
      runner.map(pool, 12, [](std::size_t i, core::HypervisorSystem&) {
        return fail_at_3_and_7(i);
      });
      FAIL() << "expected exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 3") << "jobs=" << jobs;
    }
  }
}

// Runs one monitored system per index with a derive_seed()-derived workload
// and returns (latency summary, full trace log) rendered as text.
std::vector<std::string> run_system_sweep(std::size_t jobs) {
  BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 1});
  return runner.map(6, [](std::size_t i) {
    core::HypervisorSystem system(monitored_config());
    system.hypervisor().trace_ring().set_enabled(true);
    workload::ExponentialTraceGenerator gen(
        sim::Duration::us(400 + 150 * static_cast<std::int64_t>(i)),
        derive_seed(42, i), sim::Duration::us(100));
    system.attach_trace(0, gen.generate(60));
    system.run(sim::Duration::s(10));
    std::ostringstream os;
    system.recorder().write_summary(os);
    os << '\n' << obs::render_text(system.hypervisor().trace_ring().snapshot());
    return os.str();
  });
}

TEST(BatchRunnerTest, SystemRunsBitIdenticalAcrossJobCounts) {
  const auto sequential = run_system_sweep(1);
  const auto parallel = run_system_sweep(8);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], parallel[i]) << "run " << i << " diverged";
  }
  // Sanity: the runs actually did work (non-empty trace, non-trivial text).
  for (const auto& text : sequential) EXPECT_GT(text.size(), 100u);
}

// --- warm-start differential ------------------------------------------------

TEST(SystemPoolTest, WarmRecycleMatchesColdConstructionAcrossSeeds) {
  const auto cfg = monitored_config();
  SystemPool pool(cfg);
  auto lease = pool.acquire();
  // 12 seeds through ONE slot: run 0 is the fresh system, every later run a
  // warm recycle of a slot that has already simulated -- the adversarial
  // case for restore-in-place.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    core::HypervisorSystem cold(cfg);
    const std::string expected = run_digest(cold, seed);
    const std::string warm = run_digest(lease.begin_run(), seed);
    EXPECT_EQ(warm, expected) << "seed " << seed << " diverged after recycling";
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.constructed, 1u);
  EXPECT_EQ(stats.warm_recycles, 11u);
}

TEST(SystemPoolTest, TracedWarmRecycleMatchesCold) {
  // Traced runs (a 256-record ring, so it wraps) alternate with untraced
  // ones through ONE slot: no run may inherit the previous run's ring,
  // capacity or dropped count.
  const auto cfg = monitored_config();
  SystemPool pool(cfg);
  auto lease = pool.acquire();
  const auto digest = [](core::HypervisorSystem& system, std::uint64_t seed, bool traced) {
    if (traced) system.enable_tracing(256);
    std::string out = run_digest(system, seed);
    out += '|' + std::to_string(system.trace_dropped()) + '|' +
           obs::render_text(system.trace());
    return out;
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const bool traced = seed % 2 == 1;
    core::HypervisorSystem cold(cfg);
    const std::string expected = digest(cold, seed, traced);
    EXPECT_EQ(cold.trace_dropped() > 0, traced) << "seed " << seed;
    EXPECT_EQ(digest(lease.begin_run(), seed, traced), expected) << "seed " << seed;
  }
  EXPECT_EQ(pool.stats().warm_recycles, 5u);
}

TEST(SystemPoolTest, ReleaseAndReacquireRecyclesTheSlot) {
  SystemPool pool(monitored_config());
  std::vector<std::string> digests;
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    auto lease = pool.acquire();  // released at scope exit, slot goes back
    digests.push_back(run_digest(lease.begin_run(), seed));
  }
  EXPECT_EQ(pool.size(), 1u);  // every acquire() reused the one slot
  core::HypervisorSystem cold(monitored_config());
  EXPECT_EQ(digests[2], run_digest(cold, 22));
}

// --- jobs-identity ----------------------------------------------------------

constexpr std::size_t kCampaignRuns = 32;

std::vector<std::string> run_pooled_campaign(std::size_t jobs, std::size_t chunk) {
  SystemPool pool(monitored_config());
  BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = chunk});
  return runner.map(pool, kCampaignRuns, [](std::size_t i, core::HypervisorSystem& system) {
    return run_digest(system, 100 + i);
  });
}

TEST(BatchRunnerTest, CampaignBitIdenticalForAnyJobsAndChunk) {
  const auto reference = run_pooled_campaign(1, 16);
  ASSERT_EQ(reference.size(), kCampaignRuns);
  EXPECT_EQ(run_pooled_campaign(4, 4), reference);
  EXPECT_EQ(run_pooled_campaign(16, 1), reference);
}

// The construct-per-run map is the cold reference for the pooled one.
TEST(BatchRunnerTest, PooledMapMatchesConstructPerRunMap) {
  const auto pooled = run_pooled_campaign(1, 16);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    BatchRunner runner(BatchOptions{.jobs = jobs, .chunk = 4});
    const auto cold = runner.map(kCampaignRuns, [](std::size_t i) {
      core::HypervisorSystem system(monitored_config());
      return run_digest(system, 100 + i);
    });
    EXPECT_EQ(cold, pooled) << "jobs " << jobs;
  }
}

TEST(BatchRunnerTest, PoolStaysBoundedByWorkerCount) {
  SystemPool pool(monitored_config());
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 2});
  const auto results =
      runner.map(pool, 40, [](std::size_t i, core::HypervisorSystem& system) {
        workload::ExponentialTraceGenerator gen(sim::Duration::us(700), 1 + i);
        system.attach_trace(0, gen.generate(5));
        return system.run(sim::Duration::s(1000));
      });
  ASSERT_EQ(results.size(), 40u);
  const auto stats = pool.stats();
  EXPECT_LE(stats.constructed, 4u);  // O(workers), not O(runs)
  EXPECT_EQ(stats.constructed + stats.warm_recycles, 40u);
}

// A worker takes its lease on its first run: with more workers than chunks
// the idle ones construct nothing.
TEST(BatchRunnerTest, MoreWorkersThanChunksConstructsOneSystem) {
  SystemPool pool(monitored_config());
  BatchRunner runner(BatchOptions{.jobs = 8, .chunk = 16});
  const auto results =
      runner.map(pool, 10, [](std::size_t i, core::HypervisorSystem&) { return i; });
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(pool.stats().constructed, 1u);
  EXPECT_EQ(pool.stats().warm_recycles, 9u);
}

TEST(BatchRunnerTest, EmptyAndSingletonCampaigns) {
  SystemPool pool(monitored_config());
  BatchRunner runner(BatchOptions{.jobs = 4, .chunk = 16});
  EXPECT_TRUE(
      runner.map(pool, 0, [](std::size_t, core::HypervisorSystem&) { return 1; })
          .empty());
  const auto one =
      runner.map(pool, 1, [](std::size_t i, core::HypervisorSystem&) { return i + 9; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 9u);
}

}  // namespace
}  // namespace rthv::exp
