// Perf-regression harness (tentpole part 3).
//
// Runs a google-benchmark suite over the simulator's hot paths (event-queue
// schedule/cancel/pop at several pending depths, the hypervisor-like mixed
// pattern) plus full-system events/sec throughput probes, and writes the
// results as BENCH_sim_throughput.json:
//
//   { "schema": "rthv-perf-v1", "git_rev": "...", "date": "...",
//     "benchmarks": { "<name>": { "ns_per_op": ..., "events_per_sec": ... } } }
//
// The JSON at the repo root is the committed baseline; future PRs re-run
// `cmake --build build --target perf_report_json` and diff against it, or
// let the harness do the diff: `--compare <baseline.json>` re-runs the
// suite and exits nonzero if any committed benchmark regressed by more
// than 10% (ci/run_ci.sh runs this as its perf gate).
//
// usage: perf_report [output.json] [--compare baseline.json] [--benchmark_* flags]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/hypervisor_system.hpp"
#include "core/multicore_system.hpp"
#include "exp/batch_runner.hpp"
#include "exp/system_pool.hpp"
#include "mon/monitor.hpp"
#include "obs/trace_ring.hpp"
#include "sim/event_queue.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;
using sim::TimePoint;

namespace {

// --- benchmark bodies -------------------------------------------------------

void schedule_pop(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  queue.reserve(pending + 1);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    t += 1000;
    queue.schedule(TimePoint::at_ns(t), [] {});
  }
  for (auto _ : state) {
    t += 1000;
    queue.schedule(TimePoint::at_ns(t), [] {});
    benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void schedule_cancel(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  sim::EventQueue queue;
  queue.reserve(pending + 1);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    t += 1000;
    queue.schedule(TimePoint::at_ns(t), [] {});
  }
  for (auto _ : state) {
    t += 1000;
    const sim::EventId id = queue.schedule(TimePoint::at_ns(t), [] {});
    benchmark::DoNotOptimize(queue.cancel(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void mixed_hv_pattern(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    t += 5000;
    queue.schedule(TimePoint::at_ns(t + 1444), [&sink] { ++sink; });
    const auto completion = queue.schedule(TimePoint::at_ns(t + 40000), [&sink, t] {
      sink += static_cast<std::uint64_t>(t);
    });
    queue.cancel(completion);
    queue.schedule(TimePoint::at_ns(t + 45000), [&sink, t] {
      sink += static_cast<std::uint64_t>(t) + 1;
    });
    benchmark::DoNotOptimize(queue.pop());
    queue.pop().callback();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Full-system probe: simulated events per wall-clock second for the paper's
// monitored baseline. `items` are *simulator events*, the unit every other
// subsystem's work is expressed in.
void full_system_events(benchmark::State& state) {
  constexpr std::size_t kIrqs = 2000;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto cfg = core::SystemConfig::paper_baseline();
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
    cfg.sources[0].d_min = Duration::us(1444);
    core::HypervisorSystem system(cfg);
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 7, Duration::us(1444));
    system.attach_trace(0, gen.generate(kIrqs));
    benchmark::DoNotOptimize(system.run(Duration::s(60)));
    events += system.simulator().executed_events();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void full_system_irqs(benchmark::State& state) {
  constexpr std::size_t kIrqs = 2000;
  std::uint64_t irqs = 0;
  for (auto _ : state) {
    auto cfg = core::SystemConfig::paper_baseline();
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
    cfg.sources[0].d_min = Duration::us(1444);
    core::HypervisorSystem system(cfg);
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 7, Duration::us(1444));
    system.attach_trace(0, gen.generate(kIrqs));
    irqs += system.run(Duration::s(60));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(irqs));
}

// Multi-core probe: the contended 4-core scenario (core 0 = app partition +
// monitored interposing hard-RT subscriber with an interconnect burst per
// bottom handler; cores 1-3 = overlapping-color bandwidth hogs) through the
// deterministic (time, core, seq) merge loop. `items` are completed IRQs, so
// the number is comparable with full_system/irqs: the gap is the price of
// the merge loop plus interconnect accounting.
void full_system_multicore_irqs(benchmark::State& state) {
  constexpr std::size_t kIrqs = 2000;
  std::uint64_t irqs = 0;
  for (auto _ : state) {
    core::SystemConfig cfg;
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.interconnect.num_cores = 4;
    cfg.interconnect.conflict_access_ns = 4;
    core::PartitionSpec app;
    app.name = "app";
    app.slot_length = Duration::us(6000);
    app.color_mask = 0x00FFu;
    cfg.partitions.push_back(app);
    core::PartitionSpec rt = app;
    rt.name = "rt";
    cfg.partitions.push_back(rt);
    for (std::uint32_t c = 1; c < 4; ++c) {
      core::PartitionSpec hog;
      hog.name = "hog" + std::to_string(c);
      hog.slot_length = Duration::us(6000);
      hog.core = c;
      hog.color_mask = 0x00FFu;
      hog.mem_accesses_per_us = 10;
      cfg.partitions.push_back(hog);
    }
    core::IrqSourceSpec src;
    src.name = "rt-irq";
    src.subscriber = 1;
    src.c_top = Duration::us(5);
    src.c_bottom = Duration::us(40);
    src.monitor = core::MonitorKind::kDeltaMin;
    src.d_min = Duration::us(1444);
    src.bh_accesses = 2000;
    cfg.sources.push_back(src);

    core::MulticoreSystem mc(cfg);
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 7, Duration::us(1444));
    mc.attach_trace(0, gen.generate(kIrqs));
    irqs += mc.run(Duration::s(60));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(irqs));
}

// --- IRQ hot-path phase breakdown -------------------------------------------
//
// Four rows under full_system/irqs_phases/ isolate where a monitored IRQ's
// wall-clock cost goes. Every row runs the same 2000-activation exponential
// trace shape per iteration, so ns_per_op values are directly comparable and
// adjacent differences attribute cost to one layer:
//
//   queue     event-queue work alone (schedule+pop per hot event, hv shape)
//   dispatch  + hypervisor top/bottom dispatch (monitor off, tracing off)
//   admit     + delta^- admission          (delta-min,  tracing off)
//   trace     + typed trace-ring emission  (delta-min,  tracing on)

std::uint64_t run_phase_system(core::MonitorKind monitor, bool tracing) {
  constexpr std::size_t kIrqs = 2000;
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = monitor;
  cfg.sources[0].d_min = Duration::us(1444);
  core::HypervisorSystem system(cfg);
  if (tracing) system.enable_tracing();
  workload::ExponentialTraceGenerator gen(Duration::us(1444), 7, Duration::us(1444));
  system.attach_trace(0, gen.generate(kIrqs));
  return system.run(Duration::s(60));
}

void irqs_phases_queue(benchmark::State& state) {
  constexpr std::size_t kIrqs = 2000;
  sim::EventQueue queue;
  // A live run keeps a handful of events pending (TDMA tick, guest
  // completions, far-future timers); seed that occupancy so pops pay
  // realistic bucket scans rather than empty-queue fast paths.
  std::int64_t t = 0;
  std::uint64_t sink = 0;
  for (int i = 0; i < 8; ++i) {
    queue.schedule(TimePoint::at_ns(1'000'000'000 + i * 1'000'000), [] {});
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < kIrqs; ++i) {
      t += 1'444'000;
      // Per admitted IRQ the fused hot path costs the queue two
      // schedule+pop round trips: the source timer fire and the decision
      // continuation at interposition end.
      queue.schedule(TimePoint::at_ns(t + 57'000), [&sink] { ++sink; });
      queue.pop().callback();
      queue.schedule(TimePoint::at_ns(t + 100'000), [&sink] { ++sink; });
      queue.pop().callback();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kIrqs));
}

void irqs_phases_dispatch(benchmark::State& state) {
  std::uint64_t irqs = 0;
  for (auto _ : state) irqs += run_phase_system(core::MonitorKind::kNone, false);
  state.SetItemsProcessed(static_cast<std::int64_t>(irqs));
}

void irqs_phases_admit(benchmark::State& state) {
  std::uint64_t irqs = 0;
  for (auto _ : state) irqs += run_phase_system(core::MonitorKind::kDeltaMin, false);
  state.SetItemsProcessed(static_cast<std::int64_t>(irqs));
}

void irqs_phases_trace(benchmark::State& state) {
  std::uint64_t irqs = 0;
  for (auto _ : state) irqs += run_phase_system(core::MonitorKind::kDeltaMin, true);
  state.SetItemsProcessed(static_cast<std::int64_t>(irqs));
}

// Cost of an RTHV_TRACE site with the ring disabled: this is what every
// instrumented hot path pays when nobody asked for a trace, and the
// committed baseline asserts it stays < 1 ns/event. ClobberMemory keeps the
// compiler from proving the ring stays disabled and deleting the loop body.
void trace_overhead_disabled(benchmark::State& state) {
  obs::TraceRing ring;  // never enabled; no buffer is ever allocated
  std::int64_t t = 0;
  for (auto _ : state) {
    ++t;
    RTHV_TRACE(ring, t, obs::TracePoint::kIrqPush, obs::TraceCategory::kIrq, 1u, 2u,
               static_cast<std::uint64_t>(t), 0);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(ring.emitted());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// The enabled-path cost for comparison (one 40-byte store + counter bumps).
void trace_overhead_enabled(benchmark::State& state) {
  obs::TraceRing ring;
  ring.set_enabled(true);
  std::int64_t t = 0;
  for (auto _ : state) {
    ++t;
    RTHV_TRACE(ring, t, obs::TracePoint::kIrqPush, obs::TraceCategory::kIrq, 1u, 2u,
               static_cast<std::uint64_t>(t), 0);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(ring.emitted());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Burst emission through TraceRing::BatchEmitter (the batched ring-slot
// reservation the hypervisor's fused batch-exit records use): one enabled
// check and one counter commit amortized over 16 events. ns_per_op is per
// *burst*; events_per_sec is the per-event rate comparable with
// obs/trace_overhead_enabled_ns.
void trace_overhead_enabled_batch(benchmark::State& state) {
  constexpr int kBurst = 16;
  obs::TraceRing ring;
  ring.set_enabled(true);
  std::int64_t t = 0;
  for (auto _ : state) {
    obs::TraceRing::BatchEmitter burst(ring);
    for (int k = 0; k < kBurst; ++k) {
      ++t;
      burst.emit(t, obs::TracePoint::kIrqPush, obs::TraceCategory::kIrq, 1u, 2u,
                 static_cast<std::uint64_t>(t), 0);
    }
    burst.commit();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(ring.emitted());
  state.SetItemsProcessed(state.iterations() * kBurst);
}

// --- batched campaign engine ------------------------------------------------
//
// The fig6b-shaped campaign shared by batch/runs_per_sec and
// sweep/runs_per_sec: the monitored paper baseline with short runs (3
// exponential IRQs at the 10% load shape) whose per-run inputs depend only
// on the run index. Both engines execute the identical per-run body and
// return a cheap scalar, so the pair isolates engine overhead -- system
// construction per run (sweep) vs snapshot warm-start recycling (batch) --
// rather than result-capture cost.

core::SystemConfig batch_campaign_config() {
  auto cfg = core::SystemConfig::paper_baseline();
  cfg.mode = hv::TopHandlerMode::kInterposing;
  cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
  cfg.sources[0].d_min = Duration::us(444);
  return cfg;
}

std::uint64_t batch_campaign_run(std::size_t i, core::HypervisorSystem& system) {
  workload::ExponentialTraceGenerator gen(Duration::us(444),
                                          2014 + static_cast<std::uint64_t>(i));
  system.attach_trace(0, gen.generate(3));
  return system.run(Duration::s(1000));
}

// One pool-recycle cycle: clear_traces() + restore from the pristine
// snapshot. This is the per-run fixed cost of the batched engine, the
// number that replaces full system construction (~microseconds) on every
// run after the first.
void batch_warm_start(benchmark::State& state) {
  exp::SystemPool pool(batch_campaign_config());
  auto lease = pool.acquire();
  for (auto _ : state) {
    core::HypervisorSystem& system = lease.begin_run();
    benchmark::DoNotOptimize(&system);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// 1000-run campaign on the batched engine. ns_per_op is per *campaign*;
// events_per_sec is runs/sec, directly comparable with sweep/runs_per_sec.
void batch_runs_per_sec(benchmark::State& state) {
  constexpr std::size_t kRuns = 1000;
  const auto cfg = batch_campaign_config();
  std::uint64_t irqs = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    exp::SystemPool pool(cfg);
    exp::BatchRunner runner(exp::BatchOptions{.jobs = 1, .chunk = 16});
    for (const auto done : runner.map(pool, kRuns, batch_campaign_run)) irqs += done;
    runs += kRuns;
  }
  benchmark::DoNotOptimize(irqs);
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}

// The same campaign constructing a system per run (map(count, fn)): the
// reference the pooled engine is gated against (see compare_against).
void sweep_runs_per_sec(benchmark::State& state) {
  constexpr std::size_t kRuns = 1000;
  const auto cfg = batch_campaign_config();
  std::uint64_t irqs = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    exp::BatchRunner runner(exp::BatchOptions{.jobs = 1});
    const auto done = runner.map(kRuns, [&cfg](std::size_t i) {
      core::HypervisorSystem system(cfg);
      return batch_campaign_run(i, system);
    });
    for (const auto d : done) irqs += d;
    runs += kRuns;
  }
  benchmark::DoNotOptimize(irqs);
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}

// Scheduling under deliberate imbalance: two workers claiming 4-run chunks
// from the shared counter, with runs in the first half of the index range
// 20x heavier than in the second half.
void batch_imbalanced_campaign(benchmark::State& state) {
  constexpr std::size_t kRuns = 128;
  const auto cfg = batch_campaign_config();
  std::uint64_t irqs = 0;
  for (auto _ : state) {
    exp::SystemPool pool(cfg);
    exp::BatchRunner runner(exp::BatchOptions{.jobs = 2, .chunk = 4});
    const auto done = runner.map(
        pool, kRuns, [](std::size_t i, core::HypervisorSystem& system) {
          workload::ExponentialTraceGenerator gen(
              Duration::us(444), 2014 + static_cast<std::uint64_t>(i));
          system.attach_trace(0, gen.generate(i < kRuns / 2 ? 40 : 2));
          return system.run(Duration::s(1000));
        });
    for (const auto d : done) irqs += d;
  }
  benchmark::DoNotOptimize(irqs);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRuns));
}

// Monitor admission checks (the paper's delta-minus test): these sit on the
// IRQ hot path between queue pop and guest injection, so their cost belongs
// in the committed baseline next to the queue numbers.
void delta_min_admit(benchmark::State& state) {
  mon::DeltaMinMonitor monitor(Duration::us(100));
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 73'000;
    benchmark::DoNotOptimize(monitor.record_and_check(TimePoint::at_ns(t)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void delta_vector_admit(benchmark::State& state) {
  mon::DeltaVector deltas;
  for (std::size_t i = 0; i < 5; ++i) {
    deltas.push_back(Duration::us(100 * static_cast<std::int64_t>(i + 1)));
  }
  mon::DeltaVectorMonitor monitor(deltas);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 73'000;
    benchmark::DoNotOptimize(monitor.record_and_check(TimePoint::at_ns(t)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Batched admission: 16 activations judged per call through the
// record_and_check_batch API. ns_per_op is per *batch*; events_per_sec is
// the per-activation rate comparable with mon/delta_vector_admit.
void delta_vector_admit_batch(benchmark::State& state) {
  constexpr std::size_t kBatch = 16;
  mon::DeltaVector deltas;
  for (std::size_t i = 0; i < 5; ++i) {
    deltas.push_back(Duration::us(100 * static_cast<std::int64_t>(i + 1)));
  }
  mon::DeltaVectorMonitor monitor(deltas);
  TimePoint times[kBatch];
  std::uint8_t verdicts[kBatch];
  std::int64_t t = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      t += 73'000;
      times[i] = TimePoint::at_ns(t);
    }
    monitor.record_and_check_batch(times, kBatch, verdicts);
    benchmark::DoNotOptimize(verdicts);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}

// --- result collection ------------------------------------------------------

struct Measurement {
  double ns_per_op = 0.0;
  double events_per_sec = 0.0;
};

class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      Measurement m;
      // Always in nanoseconds, independent of the benchmark's display unit.
      m.ns_per_op = run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) m.events_per_sec = it->second;
      results_[run.benchmark_name()] = m;
    }
  }

  [[nodiscard]] const std::map<std::string, Measurement>& results() const {
    return results_;
  }

 private:
  std::map<std::string, Measurement> results_;
};

std::string shell_line(const char* cmd) {
  std::string out;
  if (FILE* pipe = popen(cmd, "r")) {
    char buf[256];
    if (fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

std::string utc_now() {
  const std::time_t now = std::time(nullptr);
  char buf[32];
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

void write_json(const std::string& path,
                const std::map<std::string, Measurement>& results) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perf_report: cannot write " << path << "\n";
    std::exit(1);
  }
  const std::string rev = shell_line("git rev-parse --short HEAD 2>/dev/null");
  os << "{\n";
  os << "  \"schema\": \"rthv-perf-v1\",\n";
  os << "  \"git_rev\": \"" << (rev.empty() ? "unknown" : rev) << "\",\n";
  os << "  \"date\": \"" << utc_now() << "\",\n";
  os << "  \"benchmarks\": {\n";
  std::size_t i = 0;
  for (const auto& [name, m] : results) {
    os << "    \"" << name << "\": { \"ns_per_op\": " << m.ns_per_op
       << ", \"events_per_sec\": " << m.events_per_sec << " }"
       << (++i < results.size() ? "," : "") << "\n";
  }
  os << "  }\n";
  os << "}\n";
}

// --- baseline comparison ----------------------------------------------------

/// Reads the `benchmarks` object of an rthv-perf-v1 JSON (the format
/// write_json emits) into name -> ns_per_op. Hand-rolled scan: the schema
/// is this tool's own output, so a full JSON parser buys nothing.
std::map<std::string, double> read_baseline_ns(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "perf_report: cannot read baseline " << path << "\n";
    std::exit(2);
  }
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  std::size_t pos = text.find("\"benchmarks\"");
  if (pos == std::string::npos) {
    std::cerr << "perf_report: " << path << " has no \"benchmarks\" object\n";
    std::exit(2);
  }
  std::map<std::string, double> out;
  while ((pos = text.find("\"ns_per_op\"", pos)) != std::string::npos) {
    // The benchmark name is the quoted key before the enclosing '{'.
    const std::size_t brace = text.rfind('{', pos);
    const std::size_t colon = text.rfind(':', brace);
    const std::size_t name_end = text.rfind('"', colon);
    const std::size_t name_begin = text.rfind('"', name_end - 1);
    const std::string name = text.substr(name_begin + 1, name_end - name_begin - 1);
    const std::size_t value_at = text.find(':', pos) + 1;
    out[name] = std::strtod(text.c_str() + value_at, nullptr);
    pos = value_at;
  }
  if (out.empty()) {
    std::cerr << "perf_report: baseline " << path << " lists no benchmarks\n";
    std::exit(2);
  }
  return out;
}

/// One baseline-vs-current row of the comparison.
struct Delta {
  std::string name;
  double base_ns = 0.0;
  double cur_ns = 0.0;
  double ratio = 0.0;  // cur/base; > 1 = slower than baseline
  bool regressed = false;
};

/// Writes the sorted delta summary: every compared benchmark ordered
/// worst-regression-first, then the best/worst extremes called out. The
/// same text goes to stdout and (if `archive` is open) to the artifact
/// file ci keeps next to the fresh JSON.
void write_delta_summary(std::FILE* out, const std::vector<Delta>& deltas) {
  std::fprintf(out, "\n--- delta summary (current/baseline, worst first) ---\n");
  std::fprintf(out, "%-44s %12s %12s %8s\n", "benchmark", "baseline ns",
               "current ns", "ratio");
  for (const auto& d : deltas) {
    std::fprintf(out, "%-44s %12.3f %12.3f %8.3f%s\n", d.name.c_str(), d.base_ns,
                 d.cur_ns, d.ratio, d.regressed ? "  FAIL (>10% regression)" : "");
  }
  if (!deltas.empty()) {
    const auto& worst = deltas.front();
    const auto& best = deltas.back();
    std::fprintf(out, "worst regression: %s (%.3fx)\n", worst.name.c_str(),
                 worst.ratio);
    std::fprintf(out, "best improvement: %s (%.3fx)\n", best.name.c_str(),
                 best.ratio);
  }
}

/// Compares fresh results against a committed baseline. Fails (exit 1) if
/// any baseline benchmark is missing from this run or slowed down by more
/// than 10%, or if the batched campaign engine no longer clears its 5x
/// speedup over the classic sweep (batch/runs_per_sec vs sweep/runs_per_sec).
/// Benchmarks present in this run but absent from the baseline never gate:
/// they are listed as "new benchmark (no baseline)" so a PR can add probes
/// without immediately updating the committed JSON. A small absolute slack
/// keeps sub-nanosecond entries (the disabled trace-site probe) from
/// tripping the gate on timer quantization. `summary_path` (optional)
/// additionally archives the sorted delta summary as a text artifact.
int compare_against(const std::string& baseline_path,
                    const std::map<std::string, Measurement>& results,
                    const std::string& summary_path) {
  constexpr double kRelTolerance = 0.10;
  constexpr double kAbsSlackNs = 0.25;
  const auto baseline = read_baseline_ns(baseline_path);
  int failures = 0;
  std::vector<Delta> deltas;
  std::printf("\n%-44s %12s %12s %8s\n", "benchmark", "baseline ns", "current ns",
              "ratio");
  for (const auto& [name, base_ns] : baseline) {
    const auto it = results.find(name);
    if (it == results.end()) {
      std::printf("%-44s %12.3f %12s %8s  FAIL (missing)\n", name.c_str(), base_ns,
                  "-", "-");
      ++failures;
      continue;
    }
    const double cur_ns = it->second.ns_per_op;
    const bool regressed = cur_ns > base_ns * (1.0 + kRelTolerance) + kAbsSlackNs;
    std::printf("%-44s %12.3f %12.3f %8.3f%s\n", name.c_str(), base_ns, cur_ns,
                cur_ns / base_ns, regressed ? "  FAIL (>10% regression)" : "");
    deltas.push_back(Delta{name, base_ns, cur_ns, cur_ns / base_ns, regressed});
    if (regressed) ++failures;
  }
  for (const auto& [name, m] : results) {
    if (!baseline.contains(name)) {
      std::printf("%-44s %12s %12.3f %8s  new benchmark (no baseline)\n",
                  name.c_str(), "-", m.ns_per_op, "-");
    }
  }

  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.ratio > b.ratio; });
  write_delta_summary(stdout, deltas);
  if (!summary_path.empty()) {
    if (std::FILE* archive = std::fopen(summary_path.c_str(), "w")) {
      std::fprintf(archive, "baseline: %s\n", baseline_path.c_str());
      write_delta_summary(archive, deltas);
      std::fclose(archive);
      std::printf("delta summary archived to %s\n", summary_path.c_str());
    } else {
      std::fprintf(stderr, "perf_report: cannot write summary %s\n",
                   summary_path.c_str());
      ++failures;
    }
  }

  // The batched-campaign acceptance gate: pooled warm-start must keep a >= 5x
  // runs/sec advantage over the construct-per-run sweep.
  const auto batch_it = results.find("batch/runs_per_sec");
  const auto sweep_it = results.find("sweep/runs_per_sec");
  if (batch_it != results.end() && sweep_it != results.end() &&
      batch_it->second.ns_per_op > 0.0) {
    const double speedup = sweep_it->second.ns_per_op / batch_it->second.ns_per_op;
    const bool ok = speedup >= 5.0;
    std::printf("batched campaign speedup over construct-per-run: %.2fx%s\n", speedup,
                ok ? "" : "  FAIL (< 5x)");
    if (!ok) ++failures;
  }

  if (failures > 0) {
    std::fprintf(stderr,
                 "perf_report: %d benchmark(s) regressed >10%% against %s\n",
                 failures, baseline_path.c_str());
    return 1;
  }
  std::printf("perf_report: no regression against %s\n", baseline_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_sim_throughput.json";
  std::string compare_baseline;
  std::string summary_out;
  // First non --benchmark_* argument is the output path; `--compare <path>`
  // (or `--compare=<path>`) additionally gates this run against a committed
  // baseline, and `--summary-out <path>` archives the sorted delta summary
  // of that comparison as a text artifact.
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--compare" && i + 1 < argc) {
      compare_baseline = argv[++i];
    } else if (arg.starts_with("--compare=")) {
      compare_baseline = std::string(arg.substr(std::string_view("--compare=").size()));
    } else if (arg == "--summary-out" && i + 1 < argc) {
      summary_out = argv[++i];
    } else if (arg.starts_with("--summary-out=")) {
      summary_out =
          std::string(arg.substr(std::string_view("--summary-out=").size()));
    } else if (arg.starts_with("--")) {
      bench_args.push_back(argv[i]);
    } else {
      output = argv[i];
    }
  }

  benchmark::RegisterBenchmark("event_queue/schedule_pop", schedule_pop)
      ->Arg(0)->Arg(1000)->Arg(100000);
  benchmark::RegisterBenchmark("event_queue/schedule_cancel", schedule_cancel)
      ->Arg(1000)->Arg(100000);
  benchmark::RegisterBenchmark("event_queue/mixed_hv_pattern", mixed_hv_pattern);
  benchmark::RegisterBenchmark("mon/delta_min_admit", delta_min_admit);
  benchmark::RegisterBenchmark("mon/delta_vector_admit", delta_vector_admit);
  benchmark::RegisterBenchmark("mon/delta_vector_admit_batch16", delta_vector_admit_batch);
  benchmark::RegisterBenchmark("obs/trace_overhead_ns", trace_overhead_disabled);
  benchmark::RegisterBenchmark("obs/trace_overhead_enabled_ns", trace_overhead_enabled);
  benchmark::RegisterBenchmark("obs/trace_overhead_enabled_batch16_ns",
                               trace_overhead_enabled_batch);
  benchmark::RegisterBenchmark("batch/warm_start_ns", batch_warm_start);
  benchmark::RegisterBenchmark("batch/runs_per_sec", batch_runs_per_sec)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("sweep/runs_per_sec", sweep_runs_per_sec)
      ->Unit(benchmark::kMillisecond);
  // Registered under its historical name so the committed baseline keeps
  // gating the imbalanced campaign.
  benchmark::RegisterBenchmark("batch/steal_ratio", batch_imbalanced_campaign)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("full_system/events", full_system_events)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("full_system/irqs", full_system_irqs)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("full_system/multicore_irqs", full_system_multicore_irqs)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("full_system/irqs_phases/queue", irqs_phases_queue)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("full_system/irqs_phases/dispatch", irqs_phases_dispatch)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("full_system/irqs_phases/admit", irqs_phases_admit)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("full_system/irqs_phases/trace", irqs_phases_trace)
      ->Unit(benchmark::kMillisecond);

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  write_json(output, reporter.results());
  std::cout << "wrote " << output << "\n";
  if (!compare_baseline.empty()) {
    return compare_against(compare_baseline, reporter.results(), summary_out);
  }
  return 0;
}
