// Config-driven experiment runner.
//
// Builds a hypervisor system from a text configuration file (see
// core/config_loader.hpp for the format), attaches workloads described on
// the command line, runs the simulation and prints the latency statistics
// -- the whole library as one command.
//
// Usage:
//   rthv_run <config.ini|--baseline> [workload...] [--horizon-s N] [--dump-config]
//            [--trace-out f.json] [--metrics-out f.json] [--fault-plan plan]
// Workloads (one per source, in source order):
//   --exp <mean_us> <count> [floor_us]   exponential interarrivals
//   --trace <file.csv>                   distances from a trace CSV
//
// With no workload arguments, every source gets 2000 exponential arrivals
// at 10x its effective bottom-handler cost (~10 % load).
//
// A malformed or out-of-range number (sim/text_input.hpp), an unknown flag
// or a bad --trace CSV prints "error: ..." and exits 2; a config or fault
// plan that fails to load, or a system it cannot build, exits 1.
//
// --trace-out writes a Chrome trace-event JSON of the run (open in Perfetto
// or chrome://tracing); --metrics-out dumps the metrics snapshot as JSON
// (text dump when the path ends in ".txt").
//
// --fault-plan runs a fault-injection campaign (see src/fault/fault_plan.hpp
// for the plan format) on top of the workload: tracing is forced on, the
// plan's injectors are armed, the run goes to the horizon (the plan's
// [campaign] horizon if set), and the interference oracle replays the
// admitted activations against I(dt) = ceil(dt/d_min) * C'_BH. Exits
// non-zero on any oracle violation.
#include <cctype>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis_facade.hpp"
#include "core/checked.hpp"
#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "fault/fault_engine.hpp"
#include "fault/oracle.hpp"
#include "sim/text_input.hpp"
#include "stats/export.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;

namespace {

void usage() {
  std::cerr << "usage: rthv_run <config.ini|--baseline> "
               "[--exp mean_us count [floor_us] | --trace file.csv]... "
               "[--horizon-s N] [--dump-config] [--trace-out f.json] "
               "[--metrics-out f.json] [--fault-plan plan] [--fault-seed N]\n";
}

// Numeric flag values go through sim/text_input.hpp; a malformed or
// out-of-range one throws, which main() reports with exit code 2.
template <typename T>
T int_arg(const char* flag, const char* text) {
  if (const auto value = sim::parse_int<T>(text)) return *value;
  throw std::runtime_error(std::string(flag) + " needs an integer in [0, " +
                           std::to_string(std::numeric_limits<T>::max()) + "], got '" +
                           text + "'");
}

Duration duration_arg(const char* flag, const char* text, Duration unit,
                      std::int64_t min_count = 0) {
  if (const auto d = sim::parse_duration(text, unit, min_count)) return *d;
  throw std::runtime_error(std::string(flag) + " needs an integer in [" +
                           std::to_string(min_count) + ", " +
                           std::to_string(sim::max_count(unit)) + "], got '" + text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }

  core::SystemConfig config;
  try {
    if (std::strcmp(argv[1], "--baseline") == 0) {
      config = core::SystemConfig::paper_baseline();
    } else {
      config = core::load_config_file(argv[1]);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  std::vector<workload::Trace> traces;
  Duration horizon = Duration::s(600);
  bool dump_config = false;
  std::string trace_out;
  std::string metrics_out;
  std::string fault_plan_path;
  std::uint64_t fault_seed = 1;
  std::uint64_t seed = 1;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--exp") {
        if (i + 2 >= argc) throw std::runtime_error("--exp needs mean_us and count");
        const auto mean = duration_arg("--exp mean_us", argv[++i], Duration::us(1), 1);
        const auto count = int_arg<std::size_t>("--exp count", argv[++i]);
        Duration floor = Duration::zero();
        if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0]))) {
          floor = duration_arg("--exp floor_us", argv[++i], Duration::us(1));
        }
        workload::ExponentialTraceGenerator gen(mean, seed++, floor);
        traces.push_back(gen.generate(count));
      } else if (arg == "--trace") {
        if (i + 1 >= argc) throw std::runtime_error("--trace needs a file");
        traces.push_back(workload::Trace::load_csv_file(argv[++i]));
      } else if (arg == "--horizon-s") {
        if (i + 1 >= argc) throw std::runtime_error("--horizon-s needs a value");
        horizon = duration_arg("--horizon-s", argv[++i], Duration::s(1));
      } else if (arg == "--dump-config") {
        dump_config = true;
      } else if (arg == "--trace-out") {
        if (i + 1 >= argc) throw std::runtime_error("--trace-out needs a path");
        trace_out = argv[++i];
      } else if (arg == "--metrics-out") {
        if (i + 1 >= argc) throw std::runtime_error("--metrics-out needs a path");
        metrics_out = argv[++i];
      } else if (arg == "--fault-plan") {
        if (i + 1 >= argc) throw std::runtime_error("--fault-plan needs a path");
        fault_plan_path = argv[++i];
      } else if (arg == "--fault-seed") {
        if (i + 1 >= argc) throw std::runtime_error("--fault-seed needs a value");
        fault_seed = int_arg<std::uint64_t>("--fault-seed", argv[++i]);
      } else {
        throw std::runtime_error("unknown argument '" + arg + "'");
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    usage();
    return 2;
  }

  if (dump_config) {
    core::save_config(std::cout, config);
    return 0;
  }
  if (traces.size() > config.sources.size()) {
    std::cerr << "error: more workloads than configured sources\n";
    return 2;
  }

  // The loader checks each value; cross-references (a subscriber or slot
  // naming a missing partition, a zero d_min, too few IRQ lines, more than
  // one core) are checked when the system is built.
  std::unique_ptr<core::HypervisorSystem> built;
  try {
    // Default workload: ~10 % load per source.
    if (traces.empty()) {
      const core::AnalysisFacade facade(config);
      for (std::uint32_t s = 0; s < config.sources.size(); ++s) {
        const auto lambda = Duration::ns(facade.effective_bottom_cost(s).count_ns() * 10);
        workload::ExponentialTraceGenerator gen(lambda, seed++);
        traces.push_back(gen.generate(2000));
      }
    }
    built = std::make_unique<core::HypervisorSystem>(config);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  core::HypervisorSystem& system = *built;
  if (!trace_out.empty()) system.enable_tracing();
  for (std::uint32_t s = 0; s < traces.size(); ++s) {
    system.attach_trace(s, std::move(traces[s]));
  }

  fault::FaultPlan fault_plan;
  std::unique_ptr<fault::FaultEngine> fault_engine;
  if (!fault_plan_path.empty()) {
    try {
      fault_plan = fault::load_fault_plan_file(fault_plan_path);
      system.enable_tracing();  // the oracle replays the trace
      fault_engine = std::make_unique<fault::FaultEngine>(system, fault_plan,
                                                          fault_seed);
      fault_engine->arm();
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    if (fault_plan.horizon.is_positive()) horizon = fault_plan.horizon;
  }

  const auto completed = system.run(horizon);

  std::cout << "simulated " << system.simulator().now().as_us() / 1e6 << "s, "
            << completed << " bottom handlers completed\n";
  system.recorder().write_summary(std::cout);
  const auto& ctx = system.hypervisor().context_switches();
  std::cout << "context switches: " << ctx.total() << " (tdma " << ctx.tdma
            << ", interpose " << ctx.interpose_enter + ctx.interpose_return << ")\n";
  std::string health;
  for (int k = 0; k < static_cast<int>(hv::HealthEventKind::kCount_); ++k) {
    const auto kind = static_cast<hv::HealthEventKind>(k);
    if (const auto n = system.hypervisor().health_count(kind); n > 0) {
      health.append(" ").append(hv::to_string(kind)).append("=").append(std::to_string(n));
    }
  }
  if (!health.empty()) std::cout << "health events:" << health << "\n";
  try {
    if (!trace_out.empty()) {
      stats::write_chrome_trace_file(trace_out, system.trace(), system.trace_meta(),
                                     system.trace_dropped());
      std::cout << "trace written to " << trace_out << " (" << system.trace().size()
                << " events, " << system.trace_dropped() << " dropped)\n";
    }
    if (!metrics_out.empty()) {
      auto snap = system.metrics_snapshot();
      // Release-mode contract violations (zero on any correct run); see
      // ARCHITECTURE.md section 10.
      core::InvariantCounters::instance().publish(snap);
      if (metrics_out.ends_with(".txt")) {
        stats::write_metrics_text_file(metrics_out, snap);
      } else {
        stats::write_metrics_json_file(metrics_out, snap);
      }
      std::cout << "metrics written to " << metrics_out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (fault_engine) {
    std::cout << "fault campaign: " << fault_engine->num_injectors()
              << " injectors, " << fault_engine->total_injected() << " actions\n";
    const fault::InterferenceOracle oracle(
        fault::InterferenceOracle::params_from(system));
    const auto report = oracle.verify(system.trace());
    report.write(std::cout);
    if (!report.ok()) return 1;
  }
  return 0;
}
