#include "workload/generators.hpp"

#include <algorithm>
#include <cassert>

#include "mon/monitor.hpp"
#include "workload/sorted_streams.hpp"

namespace rthv::workload {

ExponentialTraceGenerator::ExponentialTraceGenerator(sim::Duration mean,
                                                     std::uint64_t seed,
                                                     sim::Duration floor)
    : mean_(mean), floor_(floor), rng_(seed) {
  assert(mean_.is_positive());
  assert(!floor_.is_negative());
}

Trace ExponentialTraceGenerator::generate(std::size_t count) {
  std::vector<sim::Duration> d;
  d.reserve(count);
  const double mean_ns = static_cast<double>(mean_.count_ns());
  for (std::size_t i = 0; i < count; ++i) {
    const auto sample = sim::Duration::ns(
        static_cast<std::int64_t>(rng_.exponential(mean_ns)));
    d.push_back(std::max(sample, floor_));
  }
  return Trace(std::move(d));
}

PeriodicTraceGenerator::PeriodicTraceGenerator(sim::Duration period, sim::Duration jitter,
                                               sim::Duration phase, std::uint64_t seed)
    : period_(period), jitter_(jitter), phase_(phase), rng_(seed) {
  assert(period_.is_positive());
  assert(!jitter_.is_negative());
  assert(jitter_ < period_ && "jitter >= period would reorder activations");
  assert(!phase_.is_negative());
}

std::vector<sim::TimePoint> PeriodicTraceGenerator::generate_until(sim::Duration horizon) {
  std::vector<sim::TimePoint> out;
  if (phase_ <= horizon) out.reserve(static_cast<std::size_t>((horizon - phase_) / period_) + 1);
  const double jitter_ns = static_cast<double>(jitter_.count_ns());
  for (sim::Duration nominal = phase_; nominal <= horizon; nominal += period_) {
    const auto offset = sim::Duration::ns(
        static_cast<std::int64_t>(rng_.uniform_range(-jitter_ns, jitter_ns)));
    sim::Duration t = nominal + offset;
    if (t.is_negative()) t = sim::Duration::zero();
    // A jitter above half the period can reorder neighbouring releases.
    if (t <= horizon) detail::push_sorted(out, sim::TimePoint::origin() + t);
  }
  return out;
}

BurstTraceGenerator::BurstTraceGenerator(sim::Duration mean_burst_separation,
                                         std::uint32_t max_burst_len,
                                         sim::Duration intra_distance, std::uint64_t seed)
    : separation_(mean_burst_separation), max_len_(max_burst_len), intra_(intra_distance),
      rng_(seed) {
  assert(separation_.is_positive());
  assert(max_len_ >= 1);
  assert(intra_.is_positive());
}

std::vector<sim::TimePoint> BurstTraceGenerator::generate_until(sim::Duration horizon) {
  std::vector<sim::TimePoint> out;
  const double sep_ns = static_cast<double>(separation_.count_ns());
  if (horizon.is_positive()) {
    // Expected burst count times the mean burst length, with headroom.
    const double bursts = static_cast<double>(horizon.count_ns()) / sep_ns;
    out.reserve(static_cast<std::size_t>(bursts * (max_len_ + 1) * 0.6) + max_len_);
  }
  sim::Duration t = sim::Duration::zero();
  while (true) {
    t += sim::Duration::ns(static_cast<std::int64_t>(rng_.exponential(sep_ns)));
    if (t > horizon) break;
    const auto len = static_cast<std::uint32_t>(rng_.uniform_int(1, max_len_));
    for (std::uint32_t k = 0; k < len; ++k) {
      const sim::Duration tk = t + intra_ * k;
      if (tk > horizon) break;
      // A burst's tail can overlap the next burst's start.
      detail::push_sorted(out, sim::TimePoint::origin() + tk);
    }
  }
  return out;
}

Trace worst_case_conforming_trace(const std::vector<sim::Duration>& deltas,
                                  std::size_t count) {
  mon::Tracebuffer window(deltas);
  std::vector<sim::TimePoint> times;
  times.reserve(count);
  sim::TimePoint t = sim::TimePoint::origin() + deltas.front();  // first activation
  for (std::size_t n = 0; n < count; ++n) {
    t = window.earliest_conforming(t, deltas);
    window.record(t);
    times.push_back(t);
  }
  return Trace::from_activations(times);
}

Trace merge_streams(const std::vector<std::vector<sim::TimePoint>>& streams) {
  // Sorted copies of the unsorted inputs only; reserved up front so the
  // spans the merge holds into them stay valid.
  std::vector<std::vector<sim::TimePoint>> sorted_copies;
  sorted_copies.reserve(streams.size());
  detail::SortedMerge merge;
  std::size_t total = 0;
  for (const auto& s : streams) {
    total += s.size();
    if (std::is_sorted(s.begin(), s.end())) {
      merge.add(s);
    } else {
      auto& copy = sorted_copies.emplace_back(s);
      std::sort(copy.begin(), copy.end());
      merge.add(copy);
    }
  }
  std::vector<sim::Duration> d;
  d.reserve(total);
  sim::TimePoint prev = sim::TimePoint::origin();
  while (!merge.done()) {
    const sim::TimePoint t = merge.pop();
    d.push_back(t - prev);
    prev = t;
  }
  return Trace(std::move(d));
}

}  // namespace rthv::workload
