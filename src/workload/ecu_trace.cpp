#include "workload/ecu_trace.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "sim/random.hpp"
#include "workload/generators.hpp"
#include "workload/sorted_streams.hpp"

namespace rthv::workload {

using sim::Duration;
using sim::TimePoint;

EcuTraceSynthesizer::EcuTraceSynthesizer(const EcuTraceConfig& config) : cfg_(config) {
  assert(cfg_.target_activations >= 100);
  assert(cfg_.rpm_min > 0 && cfg_.rpm_max >= cfg_.rpm_min);
  assert(cfg_.cylinders >= 1);
}

Trace EcuTraceSynthesizer::synthesize() const {
  // Aggregate rate estimate (events/s) to size the horizon: periodic tasks
  // ~850/s, crank-synchronous ~30..130/s, bursts ~60/s.
  double rate = 0.0;
  if (cfg_.with_periodic_tasks) rate += 1000.0 / 2 + 1000.0 / 5 + 1000.0 / 10 + 1000.0 / 20;
  rate += (cfg_.rpm_min + cfg_.rpm_max) / 2.0 / 60.0 * cfg_.cylinders / 2.0;
  if (cfg_.with_bursts) rate += 60.0;
  const double horizon_s = static_cast<double>(cfg_.target_activations) / rate * 1.15;
  const Duration horizon = Duration::ns(static_cast<std::int64_t>(horizon_s * 1e9));

  // Every stream below is ascending; the pass at the end merges them.
  std::vector<std::vector<TimePoint>> streams;
  streams.reserve(6);

  // Crank-synchronous stream: engine speed ramps rpm_min -> rpm_max -> back
  // over the horizon; activation distance follows 1 / rpm.
  {
    std::vector<TimePoint> s;
    // Bound: every distance is at least 98 % of the one at rpm_max.
    const double min_dist_s =
        0.98 * 60.0 / cfg_.rpm_max / (static_cast<double>(cfg_.cylinders) / 2.0);
    s.reserve(static_cast<std::size_t>(horizon_s / min_dist_s) + 1);
    sim::Xoshiro256 rng(cfg_.seed ^ 0xC4A4Cull);
    Duration t = Duration::zero();
    while (t <= horizon) {
      const double pos = t.as_s() / horizon_s;                      // 0..1
      const double tri = 1.0 - std::abs(2.0 * pos - 1.0);           // 0->1->0
      const double rpm = cfg_.rpm_min + (cfg_.rpm_max - cfg_.rpm_min) * tri;
      const double dist_s = 60.0 / rpm / (static_cast<double>(cfg_.cylinders) / 2.0);
      // 2 % cycle-to-cycle variation.
      const double noisy = dist_s * rng.uniform_range(0.98, 1.02);
      t += Duration::ns(static_cast<std::int64_t>(noisy * 1e9));
      if (t <= horizon) s.push_back(TimePoint::origin() + t);
    }
    streams.push_back(std::move(s));
  }

  if (cfg_.with_periodic_tasks) {
    const struct {
      std::int64_t period_ms;
      std::uint64_t salt;
    } tasks[] = {{2, 1}, {5, 2}, {10, 3}, {20, 4}};
    for (const auto& task : tasks) {
      const Duration period = Duration::ms(task.period_ms);
      const Duration jitter = Duration::ns(period.count_ns() / 20);  // 5 %
      PeriodicTraceGenerator gen(period, jitter,
                                 Duration::us(100 * static_cast<std::int64_t>(task.salt)),
                                 cfg_.seed * 977 + task.salt);
      streams.push_back(gen.generate_until(horizon));
    }
  }

  if (cfg_.with_bursts) {
    BurstTraceGenerator gen(Duration::ms(50), 5, Duration::us(200), cfg_.seed * 31 + 7);
    streams.push_back(gen.generate_until(horizon));
  }

  // Back-to-back network-frame episodes, injected after serialization
  // (frames arrive from the bus controller, not through the task
  // scheduler). Bursts are spread over the horizon with the first one
  // inside the learning prefix (first ~10 % of the trace).
  std::vector<TimePoint> dense;
  if (cfg_.dense_burst_count > 0 && cfg_.dense_burst_length > 1) {
    dense.reserve(std::size_t{cfg_.dense_burst_count} * cfg_.dense_burst_length);
    for (std::uint32_t b = 0; b < cfg_.dense_burst_count; ++b) {
      const double pos = 0.05 + 0.9 * static_cast<double>(b) /
                                    static_cast<double>(cfg_.dense_burst_count);
      const Duration start = Duration::ns(
          static_cast<std::int64_t>(static_cast<double>(horizon.count_ns()) * pos));
      for (std::uint32_t k = 0; k < cfg_.dense_burst_length; ++k) {
        detail::push_sorted(dense, TimePoint::origin() + start + cfg_.dense_burst_intra * k);
      }
    }
  }

  // One pass over the merged task streams: serialize colliding activations
  // -- push each to at least min_separation after its (serialized)
  // predecessor, plus a small service jitter, since a real scheduler does
  // not release back-to-back activations at an exact fixed distance --
  // merge in the dense frames, and emit distances. Serialized times stay
  // ascending, and no activation past the target is drawn.
  detail::SortedMerge tasks;
  for (const auto& s : streams) tasks.add(s);
  sim::Xoshiro256 ser_rng(cfg_.seed * 131 + 5);
  const double jitter_ns = static_cast<double>(cfg_.min_separation.count_ns()) * 0.2;
  std::vector<Duration> distances;
  distances.reserve(cfg_.target_activations + dense.size());
  TimePoint last = TimePoint::origin();
  const auto emit = [&](TimePoint t) {
    distances.push_back(t - last);
    last = t;
  };
  std::size_t next_dense = 0;
  bool first_task = true;
  TimePoint prev_task = TimePoint::origin();
  while (distances.size() < cfg_.target_activations && !tasks.done()) {
    TimePoint t = tasks.pop();
    if (cfg_.min_separation.is_positive() && !first_task &&
        t - prev_task < cfg_.min_separation) {
      t = prev_task + cfg_.min_separation +
          Duration::ns(static_cast<std::int64_t>(ser_rng.uniform_range(0.0, jitter_ns)));
    }
    first_task = false;
    prev_task = t;
    for (; next_dense < dense.size() && dense[next_dense] < t; ++next_dense) {
      emit(dense[next_dense]);
    }
    emit(t);
  }
  for (; next_dense < dense.size(); ++next_dense) emit(dense[next_dense]);
  // The dense frames may overshoot the target by a few activations.
  if (distances.size() > cfg_.target_activations) distances.resize(cfg_.target_activations);
  return Trace(std::move(distances));
}

}  // namespace rthv::workload
