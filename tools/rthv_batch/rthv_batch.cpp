// rthv_batch: batched many-system campaign CLI (front-end of
// src/exp/batch_runner).
//
// Reads a JSON campaign spec, expands it into `runs` independent
// simulations whose per-run inputs depend only on the run index
// (seed + i), executes them on the campaign engine -- a SystemPool of
// recycled systems warm-started by snapshot restore, driven by
// BatchRunner -- and writes the merged metrics snapshot. Results are
// bit-identical for any --jobs value: stdout carries only results, and the
// execution summary (job count, wall time, pool usage) goes to stderr.
//
// Usage:
//   rthv_batch campaign.json [options]
// Options:
//   --out FILE        write the merged metrics JSON (default: stdout summary only)
//   --jobs N|auto     override the spec's worker count
//
// Campaign spec: one flat JSON object; unknown keys are rejected so typos
// fail loudly. All keys are optional; every integer is range-checked
// (no key is negative, and no time overflows its nanosecond conversion):
//   {
//     "topology":   "baseline" | "<config.ini path>",
//     "mode":       "unmonitored" | "monitored" | "direct",
//     "lambda_us":  1444,      // mean exponential interarrival, > 0
//     "d_min_us":   0,         // monitoring distance; 0 = lambda
//     "floor":      false,     // floor interarrivals at d_min (fig6c-style)
//     "irqs":       10,        // IRQs per run, > 0
//     "runs":       1000,      // independent runs in the campaign, > 0
//     "seed":       2014,      // unsigned 64-bit; run i uses seed + i
//     "horizon_ms": 1000000,   // per-run simulation horizon
//     "jobs":       1          // 0 = hardware concurrency
//   }
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/config_loader.hpp"
#include "core/hypervisor_system.hpp"
#include "exp/batch_runner.hpp"
#include "exp/cli.hpp"
#include "exp/run_result.hpp"
#include "exp/system_pool.hpp"
#include "sim/text_input.hpp"
#include "stats/export.hpp"
#include "stats/table.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;

namespace {

struct CampaignSpec {
  std::string topology = "baseline";
  std::string mode = "monitored";
  std::int64_t lambda_us = 1444;
  std::int64_t d_min_us = 0;  // 0 = use lambda
  bool floor = false;
  std::size_t irqs = 10;
  std::size_t runs = 1000;
  std::uint64_t seed = 2014;
  std::int64_t horizon_ms = 1'000'000;
  std::size_t jobs = 1;
};

// Keeps Duration::us(lambda_us) and Duration::us(d_min_us) from overflowing.
constexpr std::int64_t kMaxUs = sim::max_count(Duration::us(1));

/// Minimal parser for the flat campaign-spec object above: string, integer
/// and boolean values only, no nesting, no string escapes. Errors carry the
/// byte offset so a broken spec points at itself.
class SpecParser {
 public:
  explicit SpecParser(std::string text) : text_(std::move(text)) {}

  CampaignSpec parse() {
    CampaignSpec spec;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return spec;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      apply(spec, key);
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after campaign object");
    return spec;
  }

 private:
  void apply(CampaignSpec& spec, const std::string& key) {
    if (key == "topology") {
      spec.topology = parse_string();
    } else if (key == "mode") {
      spec.mode = parse_string();
    } else if (key == "lambda_us") {
      spec.lambda_us = parse_int<std::int64_t>(1, kMaxUs);
    } else if (key == "d_min_us") {
      spec.d_min_us = parse_int<std::int64_t>(0, kMaxUs);
    } else if (key == "floor") {
      spec.floor = parse_bool();
    } else if (key == "irqs") {
      spec.irqs = parse_int<std::size_t>(1);
    } else if (key == "runs") {
      spec.runs = parse_int<std::size_t>(1);
    } else if (key == "seed") {
      spec.seed = parse_int<std::uint64_t>(0);
    } else if (key == "horizon_ms") {
      spec.horizon_ms = parse_int<std::int64_t>(0, sim::max_count(Duration::ms(1)));
    } else if (key == "jobs") {
      spec.jobs = parse_int<std::size_t>(0);
    } else {
      fail("unknown campaign key \"" + key + "\"");
    }
  }

  [[noreturn]] void fail(const std::string& what) const { fail_at(pos_, what); }
  [[noreturn]] static void fail_at(std::size_t pos, const std::string& what) {
    throw std::runtime_error("campaign spec, byte " + std::to_string(pos) + ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char next() {
    if (pos_ >= text_.size()) fail("unexpected end of spec");
    return text_[pos_++];
  }
  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (c == '\\') fail("string escapes are not supported");
      out.push_back(c);
    }
  }
  /// Scans one integer token, then converts it into [lo, hi] with
  /// sim::parse_int; every key's range starts at 0 or 1, which names the
  /// error for a token below it.
  template <typename T>
  T parse_int(T lo, T hi = std::numeric_limits<T>::max()) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() < '0' || peek() > '9') fail("expected an integer");
    while (peek() >= '0' && peek() <= '9') ++pos_;
    const std::string_view token = std::string_view(text_).substr(start, pos_ - start);
    if (const auto value = sim::parse_int<T>(token, lo, hi)) return *value;
    if (token.front() != '-' && token.find_first_not_of('0') != std::string_view::npos) {
      fail_at(start, "integer out of range");
    }
    fail_at(start, lo == T{0} ? "expected a non-negative integer" : "expected a positive integer");
  }
  bool parse_bool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true or false");
  }

  std::string text_;
  std::size_t pos_ = 0;
};

CampaignSpec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open campaign spec " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return SpecParser(buffer.str()).parse();
}

void usage() {
  std::cerr << "usage: rthv_batch campaign.json [--out FILE] [--jobs N|auto]\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || argv[1][0] == '-') {
      usage();
      return 2;
    }
    CampaignSpec spec = load_spec(argv[1]);
    std::string out_path;
    for (int i = 2; i < argc; ++i) {
      const auto need = [&] {
        if (i + 1 >= argc) {
          usage();
          std::exit(2);
        }
      };
      if (std::strcmp(argv[i], "--out") == 0) {
        need();
        out_path = argv[++i];
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        need();
        const auto jobs = exp::parse_jobs(argv[++i]);
        if (!jobs) {
          std::cerr << "error: invalid --jobs value \"" << argv[i] << "\"\n";
          usage();
          return 2;
        }
        spec.jobs = *jobs;
      } else {
        usage();
        return 2;
      }
    }

    auto config = spec.topology == "baseline" ? core::SystemConfig::paper_baseline()
                                              : core::load_config_file(spec.topology);
    const auto lambda = Duration::us(spec.lambda_us);
    const auto d_min = spec.d_min_us > 0 ? Duration::us(spec.d_min_us) : lambda;
    if (spec.mode == "monitored" || spec.mode == "direct") {
      config.mode = hv::TopHandlerMode::kInterposing;
      config.sources[0].monitor = core::MonitorKind::kDeltaMin;
      config.sources[0].d_min = d_min;
      if (spec.mode == "direct") config.sources[0].direct_delivery = true;
    } else if (spec.mode != "unmonitored") {
      throw std::runtime_error("unknown mode \"" + spec.mode + "\"");
    }
    const auto horizon = Duration::ms(spec.horizon_ms);

    // Run i's inputs are a pure function of i; merged results are
    // bit-identical for any jobs value.
    const auto run_one = [&](std::size_t i, core::HypervisorSystem& system) {
      workload::ExponentialTraceGenerator gen(
          lambda, spec.seed + i, spec.floor ? d_min : Duration::zero());
      system.attach_trace(0, gen.generate(spec.irqs));
      system.run(horizon);
      return exp::RunResult::capture(system);
    };

    const auto t0 = std::chrono::steady_clock::now();
    exp::SystemPool pool(config);
    exp::BatchRunner runner(exp::BatchOptions{.jobs = spec.jobs});
    auto runs = runner.map(pool, spec.runs, run_one);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();

    exp::RunResult merged;
    for (auto& run : runs) merged.merge(std::move(run));

    // How the campaign executed (job count, wall time, pool usage) goes to
    // stderr: stdout carries only results, byte-identical for any --jobs.
    const auto pool_stats = pool.stats();
    std::cerr << "engine:      batched, snapshot warm-start, jobs " << spec.jobs << "\n";
    std::cerr << "wall time:   " << stats::Table::num(wall_s * 1e3) << " ms ("
              << stats::Table::num(static_cast<double>(spec.runs) / wall_s, 0)
              << " runs/s)\n";
    std::cerr << "pool:        " << pool_stats.constructed << " systems constructed, "
              << pool_stats.warm_recycles << " warm recycles\n";

    const auto& all = merged.recorder.all();
    std::cout << "=== rthv_batch: " << spec.runs << " runs x " << spec.irqs
              << " IRQs (" << spec.mode << ", lambda " << spec.lambda_us
              << "us, d_min " << d_min.as_us() << "us) ===\n";
    if (all.empty()) {
      std::cout << "latency:     no completions\n";
    } else {
      std::cout << "latency:     " << merged.recorder.total() << " IRQs, avg "
                << stats::Table::num(all.mean().as_us()) << " us, p99 "
                << stats::Table::num(all.percentile(99).as_us()) << " us, max "
                << stats::Table::num(all.max().as_us()) << " us\n";
    }
    std::cout << "admission:   denied " << merged.denied_by_monitor << ", lost "
              << merged.lost_raises << ", switches "
              << merged.tdma_switches + merged.interpose_switches +
                     merged.deferred_switches
              << "\n";
    if (!out_path.empty()) {
      stats::write_metrics_json_file(out_path, merged.metrics);
      std::cout << "merged metrics written to " << out_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
