#include "core/hypervisor_system.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mon/learning_monitor.hpp"
#include "workload/generators.hpp"

namespace rthv::core {
namespace {

using sim::Duration;

SystemConfig small_config() {
  // A scaled-down system for fast tests: 1000/1000/500 us slots.
  auto cfg = SystemConfig::paper_baseline();
  cfg.partitions[0].slot_length = Duration::us(1000);
  cfg.partitions[1].slot_length = Duration::us(1000);
  cfg.partitions[2].slot_length = Duration::us(500);
  cfg.sources[0].c_top = Duration::us(5);
  cfg.sources[0].c_bottom = Duration::us(20);
  return cfg;
}

TEST(HypervisorSystemTest, BuildsPaperBaseline) {
  HypervisorSystem system(SystemConfig::paper_baseline());
  EXPECT_EQ(system.hypervisor().num_partitions(), 3u);
  EXPECT_EQ(system.hypervisor().scheduler().cycle_length(), Duration::us(14000));
  EXPECT_EQ(system.hypervisor().irq_source(0).c_bottom, Duration::us(40));
}

TEST(HypervisorSystemTest, RunsTraceToCompletion) {
  HypervisorSystem system(small_config());
  workload::ExponentialTraceGenerator gen(Duration::us(500), 1);
  system.attach_trace(0, gen.generate(100));
  const auto completed = system.run(Duration::s(10));
  EXPECT_GE(completed + system.platform().intc().lost_raises(), 100u);
  EXPECT_EQ(system.recorder().total(), completed);
}

TEST(HypervisorSystemTest, MonitoredModeProducesInterposedClass) {
  auto cfg = small_config();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(300);
  HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(Duration::us(500), 2, Duration::us(300));
  system.attach_trace(0, gen.generate(200));
  system.run(Duration::s(10));
  EXPECT_GT(system.recorder().count(stats::HandlingClass::kInterposed), 0u);
  // Conforming arrivals: essentially nothing is delayed. (A bottom handler
  // that straddles a slot boundary can occasionally push a later event into
  // the delayed path; see EXPERIMENTS.md.)
  EXPECT_LE(system.recorder().count(stats::HandlingClass::kDelayed), 2u);
}

TEST(HypervisorSystemTest, UnmonitoredModeNeverInterposes) {
  HypervisorSystem system(small_config());
  workload::ExponentialTraceGenerator gen(Duration::us(500), 3);
  system.attach_trace(0, gen.generate(200));
  system.run(Duration::s(10));
  EXPECT_EQ(system.recorder().count(stats::HandlingClass::kInterposed), 0u);
  EXPECT_GT(system.recorder().count(stats::HandlingClass::kDelayed), 0u);
  EXPECT_GT(system.recorder().count(stats::HandlingClass::kDirect), 0u);
}

TEST(HypervisorSystemTest, KeepCompletionsStoresPerEventRecords) {
  HypervisorSystem system(small_config());
  system.keep_completions(true);
  workload::ExponentialTraceGenerator gen(Duration::us(500), 4);
  system.attach_trace(0, gen.generate(50));
  const auto completed = system.run(Duration::s(5));
  EXPECT_EQ(system.completions().size(), completed);
  // Records carry monotone bottom-handler end times per source FIFO.
  for (std::size_t i = 1; i < system.completions().size(); ++i) {
    EXPECT_GE(system.completions()[i].bh_end, system.completions()[i - 1].bh_end);
    EXPECT_EQ(system.completions()[i].seq, system.completions()[i - 1].seq + 1);
  }
}

TEST(HypervisorSystemTest, CompletionsNotKeptByDefault) {
  HypervisorSystem system(small_config());
  workload::ExponentialTraceGenerator gen(Duration::us(500), 5);
  system.attach_trace(0, gen.generate(20));
  system.run(Duration::s(5));
  EXPECT_TRUE(system.completions().empty());
  EXPECT_GT(system.recorder().total(), 0u);
}

TEST(HypervisorSystemTest, LearningMonitorConfig) {
  auto cfg = small_config();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = MonitorKind::kLearning;
  cfg.sources[0].learning_depth = 3;
  cfg.sources[0].learning_events = 20;
  HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator gen(Duration::us(500), 6);
  system.attach_trace(0, gen.generate(100));
  system.run(Duration::s(10));
  const auto* monitor =
      dynamic_cast<const mon::LearningDeltaMonitor*>(system.hypervisor().monitor(0));
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->phase(), mon::LearningDeltaMonitor::Phase::kRunning);
}

TEST(HypervisorSystemTest, InvalidConfigsThrow) {
  SystemConfig no_partitions;
  EXPECT_THROW(HypervisorSystem{no_partitions}, std::invalid_argument);

  auto bad_subscriber = small_config();
  bad_subscriber.sources[0].subscriber = 99;
  EXPECT_THROW(HypervisorSystem{bad_subscriber}, std::invalid_argument);

  auto bad_monitor = small_config();
  bad_monitor.sources[0].monitor = MonitorKind::kDeltaMin;  // d_min unset
  EXPECT_THROW(HypervisorSystem{bad_monitor}, std::invalid_argument);

  auto bad_learning = small_config();
  bad_learning.sources[0].monitor = MonitorKind::kLearning;
  bad_learning.sources[0].learning_events = 0;
  EXPECT_THROW(HypervisorSystem{bad_learning}, std::invalid_argument);
}

TEST(HypervisorSystemTest, RejectsDeltaVectorWithoutPositiveFirstEntry) {
  // delta^-[0] = 0 admits back-to-back activations and leaves the source
  // outside the interference oracle, exactly like d_min = 0.
  auto zero_first = small_config();
  zero_first.sources[0].monitor = MonitorKind::kDeltaVector;
  zero_first.sources[0].delta_vector = {Duration::zero(), Duration::us(800),
                                        Duration::us(1500)};
  EXPECT_THROW(HypervisorSystem{zero_first}, std::invalid_argument);
  zero_first.sources[0].delta_vector[0] = Duration::us(1);
  EXPECT_NO_THROW(HypervisorSystem{zero_first});
}

TEST(HypervisorSystemTest, RejectsDuplicatePartitionNames) {
  // Two same-named partitions would share one irq_queue/dropped/<p> counter.
  auto dup = small_config();
  dup.partitions[2].name = dup.partitions[0].name;
  try {
    HypervisorSystem system(dup);
    FAIL() << "duplicate partition names were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate partition name 'partition-1'"),
              std::string::npos)
        << e.what();
  }
}

TEST(HypervisorSystemTest, RejectsMultiCoreConfig) {
  // A multi-core config must not run silently on one core.
  auto multi = small_config();
  multi.interconnect.num_cores = 2;
  try {
    HypervisorSystem system(multi);
    FAIL() << "a num_cores = 2 config was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MulticoreSystem"), std::string::npos) << e.what();
  }
}

TEST(HypervisorSystemTest, AttachTraceValidatesSourceIndex) {
  HypervisorSystem system(small_config());
  EXPECT_THROW(system.attach_trace(5, workload::Trace({Duration::us(1)})),
               std::invalid_argument);
}

TEST(HypervisorSystemTest, NoTraceRunsToHorizon) {
  HypervisorSystem system(small_config());
  const auto completed = system.run(Duration::ms(10));
  EXPECT_EQ(completed, 0u);
  EXPECT_GE(system.simulator().now(), sim::TimePoint::at_us(10'000));
}

TEST(HypervisorSystemTest, TwoSourcesOnDistinctLines) {
  auto cfg = small_config();
  auto second = cfg.sources[0];
  second.name = "second";
  second.subscriber = 0;
  cfg.sources.push_back(second);
  HypervisorSystem system(cfg);
  workload::ExponentialTraceGenerator g1(Duration::us(700), 7);
  workload::ExponentialTraceGenerator g2(Duration::us(900), 8);
  system.attach_trace(0, g1.generate(50));
  system.attach_trace(1, g2.generate(50));
  const auto completed = system.run(Duration::s(10));
  EXPECT_GE(completed + system.platform().intc().lost_raises(), 100u);
}

}  // namespace
}  // namespace rthv::core
