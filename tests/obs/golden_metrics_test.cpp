// Golden metrics regression: the metrics JSON of a short monitored Fig. 6b
// run under configs/fault_storm.plan, byte for byte. It pins every metric
// name and its position (HypervisorSystem::metrics_snapshot() writes the
// armed fault engine's fault/injected/* counters right after the
// irq.completed* counters), the
// latency histograms' binning (0 ns, 100 us x 85) and every value, merged
// over the three load steps in load order. Regenerate deliberately with
//     RTHV_UPDATE_GOLDEN=1 ./build/tests/test_obs
// and review the diff like any other golden update.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fig6_common.hpp"

namespace rthv {
namespace {

std::string golden_path() { return std::string(RTHV_GOLDEN_DIR) + "/golden_metrics.json"; }

TEST(GoldenMetricsTest, Fig6bFaultStormMetricsMatchGoldenFile) {
  bench::Fig6Config config;
  config.monitored = true;
  config.irqs_per_load = 200;
  config.fault_plan = std::string(RTHV_CONFIG_DIR) + "/fault_storm.plan";
  const auto result = bench::run_fig6(config);
  ASSERT_GT(result.merged.recorder.total(), 0u);
  std::ostringstream json;
  result.merged.metrics.write_json(json);

  if (std::getenv("RTHV_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path());
    ASSERT_TRUE(os) << "cannot write " << golden_path();
    os << json.str();
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  std::ifstream is(golden_path());
  ASSERT_TRUE(is) << "missing golden file " << golden_path()
                  << " -- regenerate with RTHV_UPDATE_GOLDEN=1";
  std::ostringstream golden;
  golden << is.rdbuf();
  EXPECT_EQ(json.str(), golden.str()) << "metrics JSON diverged from the committed golden";
}

}  // namespace
}  // namespace rthv
