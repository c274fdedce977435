// Coverage-guided adversarial campaign CLI (front-end of src/fault/hunt).
//
// Builds a system scenario (a config file or the monitored paper baseline),
// optionally weakens a source's monitor via the test-only hook, forks
// snapshots at a configurable instant and hunts for Eq. 14 oracle
// violations or latency-pathological schedules by mutating fault-plan
// parameters under coverage guidance.
//
// Usage:
//   rthv_hunt [config.ini|--baseline] [options]
// Options:
//   --seed N               campaign seed (default 1)
//   --jobs N               worker replicas / threads (default 1)
//   --generations N        search generations (default 8)
//   --population N         candidates per generation (default 16)
//   --horizon-ms N         simulated run length (default 100)
//   --fork-ms T            fork at t = T ms (default 10)
//   --fork-slot N          fork after the Nth TDMA slot switch
//   --fork-depth K         fork once source 0's monitor observed K events
//   --weaken DIV           weaken source 0's monitor to d_min/DIV (test hook)
//   --base-plan FILE       environment plan armed before the fork
//   --corpus FILE          seed corpus plan (repeatable)
//   --exp MEAN_US COUNT    exponential workload on source 0 (default 1444 64)
//   --event-budget N       stop after N post-fork simulated events
//   --latency-us N         latency-pathology threshold (0 = off)
//   --random               disable coverage guidance (random baseline)
//   --no-minimize          keep the raw finding unshrunk
//   --expect-finding       exit 1 when the hunt comes up empty (CI smoke)
//   --repro-out FILE       write the minimized reproducer plan
//
// Every integer value is parsed whole and range-checked: a malformed,
// negative (for counts) or zero (for --jobs, --generations, --population)
// value prints an error and exits 2 before any system is built.
//
// Every finding is replayed standalone (fresh system, reproducer armed at
// t=0) before it is reported; a finding that fails to replay is a bug in
// the snapshot layer and aborts with exit 3. A reproducer plan that cannot
// be written to --repro-out prints an error and exits 1.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_plan.hpp"
#include "fault/hunt.hpp"
#include "sim/text_input.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;
using sim::TimePoint;

namespace {

void usage() {
  std::cerr << "usage: rthv_hunt [config.ini|--baseline] [--seed N] [--jobs N]\n"
               "  [--generations N] [--population N] [--horizon-ms N]\n"
               "  [--fork-ms T | --fork-slot N | --fork-depth K] [--weaken DIV]\n"
               "  [--base-plan FILE] [--corpus FILE]... [--exp MEAN_US COUNT]\n"
               "  [--event-budget N] [--latency-us N] [--random] [--no-minimize]\n"
               "  [--expect-finding] [--repro-out FILE]\n";
}

// Parses the whole of `value` as an integer in [lo, hi] (sim::parse_int);
// anything else prints an error and exits 2.
template <typename T>
T parse_int(const char* flag, const char* value, T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) {
  if (const auto parsed = sim::parse_int<T>(value, lo, hi)) return *parsed;
  std::cerr << "error: " << flag << " needs an integer in [" << lo << ", " << hi
            << "], got '" << value << "'\n";
  std::exit(2);
}

// Upper bounds that keep the unit conversions below from overflowing.
constexpr std::int64_t kMaxMs = sim::max_count(Duration::ms(1));
constexpr std::int64_t kMaxUs = sim::max_count(Duration::us(1));

}  // namespace

int main(int argc, char** argv) {
  core::SystemConfig config = core::SystemConfig::paper_baseline();
  config.mode = hv::TopHandlerMode::kInterposing;
  config.sources[0].monitor = core::MonitorKind::kDeltaMin;
  config.sources[0].d_min = Duration::us(1444);

  fault::HuntConfig hunt;
  hunt.horizon = Duration::ms(100);
  hunt.fork.kind = fault::HuntForkPoint::Kind::kTime;
  hunt.fork.time = TimePoint::at_us(10'000);

  std::int64_t weaken_divisor = 0;
  std::int64_t exp_mean_us = 1444;
  std::int64_t exp_count = 64;
  bool expect_finding = false;
  std::string repro_out;

  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    try {
      config = core::load_config_file(argv[i]);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    ++i;
  } else if (i < argc && std::strcmp(argv[i], "--baseline") == 0) {
    ++i;
  }

  try {
    for (; i < argc; ++i) {
      const auto need = [&](int extra) {
        if (i + extra >= argc) {
          usage();
          std::exit(2);
        }
      };
      if (std::strcmp(argv[i], "--seed") == 0) {
        need(1);
        hunt.seed = parse_int<std::uint64_t>("--seed", argv[++i]);
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        need(1);
        hunt.jobs = parse_int<std::uint32_t>("--jobs", argv[++i], 1);
      } else if (std::strcmp(argv[i], "--generations") == 0) {
        need(1);
        hunt.generations = parse_int<std::uint32_t>("--generations", argv[++i], 1);
      } else if (std::strcmp(argv[i], "--population") == 0) {
        need(1);
        hunt.population = parse_int<std::uint32_t>("--population", argv[++i], 1);
      } else if (std::strcmp(argv[i], "--horizon-ms") == 0) {
        need(1);
        hunt.horizon =
            Duration::ms(parse_int<std::int64_t>("--horizon-ms", argv[++i], 1, kMaxMs));
      } else if (std::strcmp(argv[i], "--fork-ms") == 0) {
        need(1);
        hunt.fork.kind = fault::HuntForkPoint::Kind::kTime;
        hunt.fork.time = TimePoint::at_us(
            parse_int<std::int64_t>("--fork-ms", argv[++i], 0, kMaxMs) * 1000);
      } else if (std::strcmp(argv[i], "--fork-slot") == 0) {
        need(1);
        hunt.fork.kind = fault::HuntForkPoint::Kind::kSlotBoundary;
        hunt.fork.boundary = parse_int<std::uint64_t>("--fork-slot", argv[++i]);
      } else if (std::strcmp(argv[i], "--fork-depth") == 0) {
        need(1);
        hunt.fork.kind = fault::HuntForkPoint::Kind::kMonitorDepth;
        hunt.fork.source = 0;
        hunt.fork.depth = parse_int<std::uint64_t>("--fork-depth", argv[++i]);
      } else if (std::strcmp(argv[i], "--weaken") == 0) {
        need(1);
        weaken_divisor = parse_int<std::int64_t>("--weaken", argv[++i], 0);
      } else if (std::strcmp(argv[i], "--base-plan") == 0) {
        need(1);
        hunt.base_plan = fault::load_fault_plan_file(argv[++i]);
      } else if (std::strcmp(argv[i], "--corpus") == 0) {
        need(1);
        hunt.corpus.push_back(fault::load_fault_plan_file(argv[++i]));
      } else if (std::strcmp(argv[i], "--exp") == 0) {
        need(2);
        exp_mean_us = parse_int<std::int64_t>("--exp", argv[++i], 1, kMaxUs);
        exp_count = parse_int<std::int64_t>("--exp", argv[++i], 0);
      } else if (std::strcmp(argv[i], "--event-budget") == 0) {
        need(1);
        hunt.event_budget = parse_int<std::uint64_t>("--event-budget", argv[++i]);
      } else if (std::strcmp(argv[i], "--latency-us") == 0) {
        need(1);
        hunt.latency_threshold =
            Duration::us(parse_int<std::int64_t>("--latency-us", argv[++i], 0, kMaxUs));
      } else if (std::strcmp(argv[i], "--random") == 0) {
        hunt.coverage_guided = false;
      } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
        hunt.minimize = false;
      } else if (std::strcmp(argv[i], "--expect-finding") == 0) {
        expect_finding = true;
      } else if (std::strcmp(argv[i], "--repro-out") == 0) {
        need(1);
        repro_out = argv[++i];
      } else {
        usage();
        return 2;
      }
    }

    if (hunt.corpus.empty()) {
      // Default seed corpus: a mild flood on source 0 well above d_min; the
      // mutation loop does the rest.
      fault::InjectionSpec spec;
      spec.kind = fault::FaultKind::kFlood;
      spec.source = 0;
      spec.start = hunt.fork.time;
      spec.count = 16;
      spec.distance = config.sources.empty() || !config.sources[0].d_min.is_positive()
                          ? Duration::us(2000)
                          : config.sources[0].d_min * std::int64_t{3};
      fault::FaultPlan plan;
      plan.injections.push_back(spec);
      hunt.corpus.push_back(plan);
    }

    hunt.make_system = [&config, weaken_divisor, exp_mean_us, exp_count,
                        seed = hunt.seed] {
      auto system = std::make_unique<core::HypervisorSystem>(config);
      if (weaken_divisor > 1) {
        fault::weaken_monitor_for_test(*system, 0, weaken_divisor);
      }
      system->enable_tracing();
      if (exp_count > 0) {
        workload::ExponentialTraceGenerator gen(Duration::us(exp_mean_us), seed);
        system->attach_trace(0, gen.generate(static_cast<std::size_t>(exp_count)));
      }
      return system;
    };

    const auto result = fault::run_hunt(hunt);

    std::cout << "evaluations:    " << result.evaluations << "\n"
              << "generations:    " << result.generations_run << "\n"
              << "corpus size:    " << result.corpus_size << "\n"
              << "coverage bits:  " << result.coverage.count() << "\n"
              << "events to fork: " << result.events_to_fork << "\n"
              << "sim events:     " << result.sim_events << "\n";

    if (!result.found) {
      std::cout << "no finding.\n";
      return expect_finding ? 1 : 0;
    }

    std::cout << "FINDING at candidate " << result.reproducer.global_index
              << " after " << result.sim_events_at_find << " post-fork events\n"
              << "engine seed:    " << result.reproducer.engine_seed << "\n";
    result.report.write(std::cout);
    if (result.max_latency_ns > 0) {
      std::cout << "max latency:    " << result.max_latency_ns << " ns\n";
    }

    // A reproducer that does not replay standalone is a snapshot-layer bug.
    const auto replay = fault::replay_reproducer(hunt, result.reproducer);
    const bool latency_finding =
        hunt.latency_threshold.is_positive() &&
        result.max_latency_ns >= hunt.latency_threshold.count_ns();
    if (replay.ok() && !latency_finding) {
      std::cerr << "error: finding did not replay standalone\n";
      return 3;
    }
    std::cout << "replayed standalone: "
              << (replay.ok() ? "latency pathology" : "oracle violation") << "\n";

    if (!repro_out.empty()) {
      std::ofstream out(repro_out);
      fault::save_fault_plan(out, result.reproducer.plan);
      out.close();
      if (!out) {
        std::cerr << "error: cannot write file: " << repro_out << "\n";
        return 1;
      }
      std::cout << "reproducer plan written to " << repro_out << "\n";
    } else {
      std::cout << "--- reproducer plan ---\n";
      fault::save_fault_plan(std::cout, result.reproducer.plan);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
