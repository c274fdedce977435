// Determinism contract of parallel sweeps: the result of map() -- and of
// full HypervisorSystem runs driven through it -- must be bit-identical for
// any job count (satellite requirement: --jobs 1 vs --jobs 8 produce the
// same LatencyRecorder summaries and trace logs).
#include "exp/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "exp/seed.hpp"
#include "obs/exporters.hpp"
#include "workload/generators.hpp"

namespace rthv::exp {
namespace {

TEST(DeriveSeedTest, DependsOnlyOnBaseAndIndex) {
  EXPECT_EQ(derive_seed(42, 3), derive_seed(42, 3));
  EXPECT_NE(derive_seed(42, 3), derive_seed(42, 4));
  EXPECT_NE(derive_seed(42, 3), derive_seed(43, 3));
  static_assert(derive_seed(1, 0) == derive_seed(1, 0));  // usable at compile time
}

TEST(DeriveSeedTest, NeighbouringIndicesAreWellSpread) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across a realistic sweep
}

TEST(SweepRunnerTest, ZeroJobsMeansSequential) {
  SweepRunner runner(0);
  EXPECT_EQ(runner.jobs(), 1u);
}

TEST(SweepRunnerTest, ResultsOrderedByIndexRegardlessOfFinishOrder) {
  SweepRunner runner(8);
  // Early indices sleep longest, so late indices finish first; the output
  // must still come back in index order.
  const auto results = runner.map(16, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
    return i * i;
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(SweepRunnerTest, SequentialAndParallelAgree) {
  const auto run = [](std::size_t jobs) {
    SweepRunner runner(jobs);
    return runner.map(10, [](std::size_t i) { return 1000 + i * 7; });
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(SweepRunnerTest, EmptyAndSingletonCounts) {
  SweepRunner runner(4);
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
  const auto one = runner.map(1, [](std::size_t i) { return i + 99; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 99u);
}

TEST(SweepRunnerTest, RethrowsLowestIndexFailure) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    SweepRunner runner(jobs);
    try {
      runner.map(12, [](std::size_t i) -> int {
        if (i == 3 || i == 7) throw std::runtime_error("run " + std::to_string(i));
        return 0;
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
  SweepRunner runner(jobs);
  return runner.map(6, [](std::size_t i) {
    auto cfg = core::SystemConfig::paper_baseline();
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
    cfg.sources[0].d_min = sim::Duration::us(1444);
    core::HypervisorSystem system(cfg);
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

TEST(SweepRunnerTest, SystemRunsBitIdenticalAcrossJobCounts) {
  const auto sequential = run_system_sweep(1);
  const auto parallel = run_system_sweep(8);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], parallel[i]) << "run " << i << " diverged";
  }
  // Sanity: the runs actually did work (non-empty trace, non-trivial text).
  for (const auto& text : sequential) EXPECT_GT(text.size(), 100u);
}

}  // namespace
}  // namespace rthv::exp
