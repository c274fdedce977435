// Host-side micro-benchmarks (google-benchmark) of the building blocks on
// the hot paths: monitor admission checks, IRQ queue operations, the
// discrete-event queue, trace-site cost, busy-window solving and
// full-system simulation throughput. Supporting evidence only: performance
// claims are end-to-end medians measured by e2ebench/.
#include <benchmark/benchmark.h>

#include "core/analysis_facade.hpp"
#include "core/hypervisor_system.hpp"
#include "mon/learning_monitor.hpp"
#include "mon/monitor.hpp"
#include "obs/trace_ring.hpp"
#include "sim/event_queue.hpp"
#include "workload/generators.hpp"

using namespace rthv;
using sim::Duration;
using sim::TimePoint;

namespace {

void BM_DeltaMinCheck(benchmark::State& state) {
  mon::DeltaVectorMonitor monitor(mon::DeltaVector{Duration::us(100)});
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 73'000;
    benchmark::DoNotOptimize(monitor.record_and_check(TimePoint::at_ns(t)));
  }
}
// Registered under mon/ names: the δ⁻ admission check sits on the IRQ hot
// path between queue pop and guest injection.
BENCHMARK(BM_DeltaMinCheck)->Name("mon/delta_min_admit");

void BM_DeltaVectorMonitorCheck(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  mon::DeltaVector deltas;
  for (std::size_t i = 0; i < depth; ++i) {
    deltas.push_back(Duration::us(100 * static_cast<std::int64_t>(i + 1)));
  }
  mon::DeltaVectorMonitor monitor(deltas);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 73'000;
    benchmark::DoNotOptimize(monitor.record_and_check(TimePoint::at_ns(t)));
  }
}
BENCHMARK(BM_DeltaVectorMonitorCheck)->Name("mon/delta_vector_admit")->Arg(1)->Arg(5)->Arg(16);

void BM_LearningMonitorLearnStep(benchmark::State& state) {
  mon::LearningDeltaMonitor monitor(5, UINT64_MAX);  // stays in learning mode
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 51'000;
    benchmark::DoNotOptimize(monitor.record_and_check(TimePoint::at_ns(t)));
  }
}
BENCHMARK(BM_LearningMonitorLearnStep);

void BM_IrqQueuePushPop(benchmark::State& state) {
  hv::IrqQueue queue(256);
  hv::IrqEvent ev;
  for (auto _ : state) {
    queue.push(ev);
    benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_IrqQueuePushPop);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1000;
    queue.schedule(TimePoint::at_ns(t), [] {});
    benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

// Steady-state schedule+pop with a large pending set. The queue is a
// (time, seq)-sorted list, so this append-at-the-tail pattern stays cheap
// while an out-of-order insert costs O(pending). Arg = number of events
// already pending.
void BM_EventQueueScheduleAndPopPending(benchmark::State& state) {
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
}
BENCHMARK(BM_EventQueueScheduleAndPopPending)->Arg(1000)->Arg(100000);

// Schedule an event and cancel it again while `pending` other events are
// live -- the hypervisor's preemption pattern (every IRQ entry cancels the
// running work unit's completion event). Arg = pending events.
void BM_EventQueueScheduleAndCancel(benchmark::State& state) {
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
}
BENCHMARK(BM_EventQueueScheduleAndCancel)->Arg(1000)->Arg(100000);

// Mixed workload mirroring HypervisorSystem scheduling: each simulated IRQ
// schedules a timer event and a work-unit completion, preempts (cancels)
// the completion, reschedules the remainder and pops the next event --
// with stateful capture payloads like the hypervisor's continuations.
void BM_EventQueueMixedHvPattern(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t t = 0;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    t += 5000;
    const auto timer = queue.schedule(TimePoint::at_ns(t + 1444), [&sink] { ++sink; });
    const auto completion =
        queue.schedule(TimePoint::at_ns(t + 40000), [&sink, t] {
          sink += static_cast<std::uint64_t>(t);
        });
    queue.cancel(completion);  // IRQ entry preempts the running unit
    queue.schedule(TimePoint::at_ns(t + 45000), [&sink, t] {
      sink += static_cast<std::uint64_t>(t) + 1;
    });
    benchmark::DoNotOptimize(queue.pop());
    queue.pop().callback();
    benchmark::DoNotOptimize(timer);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueMixedHvPattern);

// Cost of an RTHV_TRACE site with the ring disabled: this is what every
// instrumented hot path pays when nobody asked for a trace; README and
// ARCHITECTURE §8 state it stays < 1 ns/event. ClobberMemory keeps the
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
BENCHMARK(trace_overhead_disabled)->Name("obs/trace_overhead_ns");

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
BENCHMARK(trace_overhead_enabled)->Name("obs/trace_overhead_enabled_ns");

void BM_BusyWindowSolve(benchmark::State& state) {
  analysis::BusyWindowProblem problem;
  problem.per_event_cost = Duration::us(40);
  problem.interference.push_back(analysis::load_interference(
      analysis::ArrivalCurve(analysis::make_sporadic(Duration::us(1444))),
      Duration::us(5)));
  problem.interference.push_back([](Duration w) {
    return Duration::us(8000) * Duration::ceil_div(w, Duration::us(14000));
  });
  const analysis::BusyWindowSolver solver(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.busy_time(3));
  }
}
BENCHMARK(BM_BusyWindowSolve);

void BM_WcrtFullAnalysis(benchmark::State& state) {
  const core::AnalysisFacade facade(core::SystemConfig::paper_baseline());
  const auto activation = analysis::make_sporadic(Duration::us(1444));
  for (auto _ : state) {
    benchmark::DoNotOptimize(facade.compare(0, activation, true));
  }
}
BENCHMARK(BM_WcrtFullAnalysis);

void BM_ExponentialTraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 42);
    benchmark::DoNotOptimize(gen.generate(1000));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExponentialTraceGeneration);

void BM_FullSystemSimulation(benchmark::State& state) {
  // Simulated-IRQ throughput of the complete hypervisor system (monitored
  // configuration, 10% load).
  for (auto _ : state) {
    auto cfg = core::SystemConfig::paper_baseline();
    cfg.mode = hv::TopHandlerMode::kInterposing;
    cfg.sources[0].monitor = core::MonitorKind::kDeltaMin;
    cfg.sources[0].d_min = Duration::us(1444);
    core::HypervisorSystem system(cfg);
    workload::ExponentialTraceGenerator gen(Duration::us(1444), 7);
    system.attach_trace(0, gen.generate(200));
    benchmark::DoNotOptimize(system.run(Duration::s(10)));
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_FullSystemSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
