#include "core/config_loader.hpp"

#include <gtest/gtest.h>

#include "core/hypervisor_system.hpp"

#include <sstream>
#include <string>

namespace rthv::core {
namespace {

using sim::Duration;

constexpr const char* kBaselineConfig = R"(
# paper baseline
[platform]
cpu_freq_hz = 200000000
ctx_invalidate_instructions = 5000
ctx_writeback_cycles = 5000

[overheads]
monitor_instructions = 128
sched_manipulation_instructions = 877

[mode]
interposing = true

[partition]
name = partition-1
slot_us = 6000

[partition]
name = partition-2
slot_us = 6000

[partition]
name = housekeeping
slot_us = 2000
background_load = false

[source]
name = irq-under-test
subscriber = 1
c_top_us = 5
c_bottom_us = 40
monitor = delta_min
d_min_us = 1444
)";

TEST(ConfigLoaderTest, ParsesBaseline) {
  std::istringstream is(kBaselineConfig);
  const auto cfg = load_config(is);
  EXPECT_EQ(cfg.platform.cpu_freq_hz, 200'000'000u);
  EXPECT_EQ(cfg.overheads.monitor_instructions, 128u);
  EXPECT_EQ(cfg.mode, hv::TopHandlerMode::kInterposing);
  ASSERT_EQ(cfg.partitions.size(), 3u);
  EXPECT_EQ(cfg.partitions[0].name, "partition-1");
  EXPECT_EQ(cfg.partitions[0].slot_length, Duration::us(6000));
  EXPECT_TRUE(cfg.partitions[0].background_load);
  EXPECT_FALSE(cfg.partitions[2].background_load);
  ASSERT_EQ(cfg.sources.size(), 1u);
  EXPECT_EQ(cfg.sources[0].subscriber, 1u);
  EXPECT_EQ(cfg.sources[0].monitor, MonitorKind::kDeltaMin);
  EXPECT_EQ(cfg.sources[0].d_min, Duration::us(1444));
  EXPECT_EQ(cfg.tdma_cycle(), Duration::us(14000));
}

TEST(ConfigLoaderTest, ParsesDeltaVectorAndLearning) {
  std::istringstream is(R"(
[partition]
name = p
slot_us = 1000
[source]
name = s
subscriber = 0
c_top_us = 1
c_bottom_us = 2
monitor = learning
learning_depth = 3
learning_events = 50
delta_vector_us = 100 200 300
)");
  const auto cfg = load_config(is);
  EXPECT_EQ(cfg.sources[0].monitor, MonitorKind::kLearning);
  EXPECT_EQ(cfg.sources[0].learning_depth, 3u);
  EXPECT_EQ(cfg.sources[0].learning_events, 50u);
  ASSERT_EQ(cfg.sources[0].delta_vector.size(), 3u);
  EXPECT_EQ(cfg.sources[0].delta_vector[1], Duration::us(200));
}

TEST(ConfigLoaderTest, ParsesExplicitSchedule) {
  std::istringstream is(R"(
[partition]
name = a
slot_us = 1000
[partition]
name = b
slot_us = 1000
[slot]
partition = 0
length_us = 500
[slot]
partition = 1
length_us = 500
[slot]
partition = 0
length_us = 500
)");
  const auto cfg = load_config(is);
  ASSERT_EQ(cfg.schedule.size(), 3u);
  EXPECT_EQ(cfg.schedule[2].partition, 0u);
  EXPECT_EQ(cfg.tdma_cycle(), Duration::us(1500));
}

TEST(ConfigLoaderTest, ErrorsCarryLineNumbers) {
  std::istringstream is("[platform]\nbogus_key = 1\n");
  try {
    (void)load_config(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(ConfigLoaderTest, RejectsDuplicatePartitionNames) {
  std::istringstream is(
      "[partition]\nname = a\nslot_us = 100\n"
      "[partition]\nname = b\nslot_us = 100\n"
      "[partition]\nslot_us = 100\nname = a\n");
  try {
    (void)load_config(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 9u);
    EXPECT_NE(std::string(e.what()).find("duplicate partition name 'a' (first named on line 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigLoaderTest, RejectsMalformedInput) {
  {
    std::istringstream is("[partition\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[unknown]\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("key_without_section = 1\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[partition]\nname\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[partition]\nslot_us = abc\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[mode]\ninterposing = maybe\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  {
    std::istringstream is("[partition]\nname = p\n[source]\nmonitor = banana\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  // Out-of-range numbers are rejected on their own line instead of wrapping
  // (a negative count cast to unsigned), overflowing the ns conversion, or
  // dividing by a zero clock later.
  for (const char* text : {
           "[platform]\ncpu_freq_hz = 0\n",
           "[platform]\nnum_irq_lines = -1\n",
           "[platform]\nnum_irq_lines = 4294967296\n",
           "[mode]\nirq_queue_capacity = -1\n",
           "[partition]\nslot_us = 9223372036854775807\n",
           "[partition]\nslot_us = -5\n",
           "[source]\nsubscriber = -1\n",
           "[source]\nd_min_us = 9223372036854776\n",
           "[source]\ndelta_vector_us = 100 -1\n",
       }) {
    std::istringstream is(text);
    try {
      (void)load_config(is);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.line(), 2u) << text;
    }
  }
}

TEST(ConfigLoaderTest, ReadsTheSharedInputGrammar) {
  // `;` starts a comment like `#`, a sign may lead a number, and a color
  // mask is 0x-hex or decimal (a leading 0 no longer means octal).
  std::istringstream is(
      "; semicolon comment\n"
      "[partition]   ; trailing comment\n"
      "name = p\n"
      "slot_us = +100\n"
      "color_mask = 010\n"
      "[partition]\n"
      "name = q\n"
      "slot_us = 100\n"
      "color_mask = 0xF0\n");
  const auto cfg = load_config(is);
  ASSERT_EQ(cfg.partitions.size(), 2u);
  EXPECT_EQ(cfg.partitions[0].name, "p");
  EXPECT_EQ(cfg.partitions[0].slot_length, Duration::us(100));
  EXPECT_EQ(cfg.partitions[0].color_mask, 10u);
  EXPECT_EQ(cfg.partitions[1].color_mask, 0xF0u);
}

TEST(ConfigLoaderTest, UnnamedSourceRoundTrips) {
  // Found by the input fuzz test: save_config wrote "name = " for a source
  // without a name, which load_config rejects as an empty value.
  std::istringstream is("[partition]\nname = p\nslot_us = 100\n[source]\nsubscriber = 0\n");
  std::ostringstream saved;
  save_config(saved, load_config(is));
  std::istringstream reread(saved.str());
  EXPECT_TRUE(load_config(reread).sources.at(0).name.empty());
}

TEST(ConfigLoaderTest, RejectsSemanticallyInvalid) {
  {
    std::istringstream is("[platform]\ncpu_freq_hz = 1000000\n");  // no partitions
    EXPECT_THROW((void)load_config(is), std::invalid_argument);
  }
  {
    std::istringstream is("[partition]\nslot_us = 100\n");  // unnamed
    EXPECT_THROW((void)load_config(is), std::invalid_argument);
  }
  {
    std::istringstream is("[partition]\nname = p\n");  // no slot, no schedule
    EXPECT_THROW((void)load_config(is), std::invalid_argument);
  }
}

TEST(ConfigLoaderTest, RejectsColorMaskWithNoConfiguredColor) {
  // 0xFF00 selects none of 8 colors; it used to widen silently to all 8.
  const std::string head = "[interconnect]\ncolors = 8\n[partition]\nname = p\nslot_us = 100\n";
  try {
    std::istringstream is(head + "color_mask = 0xFF00\n");
    (void)load_config(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 6u);
    EXPECT_NE(std::string(e.what()).find("color_mask selects none of the 8 colors"),
              std::string::npos)
        << e.what();
  }
  // The check waits for `colors`, which may come after the partition.
  {
    std::istringstream is(
        "[partition]\nname = p\nslot_us = 100\ncolor_mask = 0x100\n"
        "[interconnect]\ncolors = 8\n");
    EXPECT_THROW((void)load_config(is), ConfigError);
  }
  // Uncolored (0), all-ones and partly configured masks stay legal.
  for (const char* mask : {"0", "0xFFFFFFFF", "0x1F0"}) {
    std::istringstream is(head + "color_mask = " + mask + "\n");
    EXPECT_NO_THROW((void)load_config(is)) << mask;
  }
}

TEST(ConfigLoaderTest, RejectsBudgetsForCoresThatDoNotExist) {
  const std::string tail = "[partition]\nname = p\nslot_us = 100\n";
  try {
    std::istringstream is("[interconnect]\ncores = 1\n[core]\nbudget_accesses = 0\n"
                          "[core]\nbudget_accesses = 500\n" + tail);
    (void)load_config(is);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 5u);  // the second [core] section
    EXPECT_NE(std::string(e.what()).find("[core] section for core 1 of 1"), std::string::npos)
        << e.what();
  }
  std::istringstream one("[interconnect]\ncores = 1\n[core]\nbudget_accesses = 500\n" + tail);
  EXPECT_EQ(load_config(one).interconnect.budgets.size(), 1u);
}

TEST(ConfigLoaderTest, ColoredSingleCoreConfigRoundTrips) {
  // A saved color_mask must carry its `colors`: 32 colors admit a mask
  // that the default 16 would reject on reload.
  std::istringstream is(
      "[interconnect]\ncolors = 32\n[partition]\nname = p\nslot_us = 100\n"
      "color_mask = 0xFF000000\n");
  std::ostringstream saved;
  save_config(saved, load_config(is));
  std::istringstream reread(saved.str());
  const auto back = load_config(reread);
  EXPECT_EQ(back.interconnect.num_colors, 32u);
  EXPECT_EQ(back.partitions.at(0).color_mask, 0xFF000000u);
}

TEST(ConfigLoaderTest, RoundTripPreservesConfig) {
  auto original = SystemConfig::paper_baseline();
  original.mode = hv::TopHandlerMode::kInterposing;
  original.sources[0].monitor = MonitorKind::kTokenBucket;
  original.sources[0].d_min = Duration::us(1000);
  original.sources[0].bucket_depth = 3;
  original.schedule.push_back(ScheduleSlot{0, Duration::us(7000)});
  original.schedule.push_back(ScheduleSlot{1, Duration::us(7000)});

  std::stringstream ss;
  save_config(ss, original);
  const auto back = load_config(ss);

  EXPECT_EQ(back.platform.cpu_freq_hz, original.platform.cpu_freq_hz);
  EXPECT_EQ(back.mode, original.mode);
  ASSERT_EQ(back.partitions.size(), original.partitions.size());
  for (std::size_t i = 0; i < back.partitions.size(); ++i) {
    EXPECT_EQ(back.partitions[i].name, original.partitions[i].name);
    EXPECT_EQ(back.partitions[i].slot_length, original.partitions[i].slot_length);
  }
  ASSERT_EQ(back.sources.size(), 1u);
  EXPECT_EQ(back.sources[0].monitor, MonitorKind::kTokenBucket);
  EXPECT_EQ(back.sources[0].bucket_depth, 3u);
  ASSERT_EQ(back.schedule.size(), 2u);
  EXPECT_EQ(back.schedule[1].length, Duration::us(7000));
}

TEST(ConfigLoaderTest, LoadedConfigBuildsARunningSystem) {
  std::istringstream is(kBaselineConfig);
  const auto cfg = load_config(is);
  // Must be constructible and runnable.
  HypervisorSystem system(cfg);
  system.run(Duration::ms(50));
  EXPECT_GE(system.simulator().now(), sim::TimePoint::at_us(50'000));
}

TEST(ConfigLoaderTest, ShippedConfigsLoadAndRun) {
  for (const char* name : {"paper_baseline.ini", "split_slots.ini", "token_bucket.ini"}) {
    const auto cfg = load_config_file(std::string(RTHV_CONFIG_DIR) + "/" + name);
    HypervisorSystem system(cfg);
    system.run(Duration::ms(20));
    EXPECT_GE(system.simulator().now(), sim::TimePoint::at_us(20'000)) << name;
  }
}

TEST(ConfigLoaderTest, MissingFileThrows) {
  EXPECT_THROW((void)load_config_file("/no/such/config.ini"), std::runtime_error);
}

}  // namespace
}  // namespace rthv::core
