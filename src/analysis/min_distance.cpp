#include "analysis/min_distance.hpp"

#include <algorithm>
#include <cassert>

#include "core/checked.hpp"

namespace rthv::analysis {

SporadicModel::SporadicModel(sim::Duration d_min) : d_(d_min) {
  RTHV_PRECONDITION(d_.is_positive(),
                    "analysis/sporadic-dmin-positive");
}

sim::Duration SporadicModel::at(std::uint64_t q) const {
  return core::checked_mul(d_, q - 1, "analysis/sporadic-delta");
}

PeriodicJitterModel::PeriodicJitterModel(sim::Duration period, sim::Duration jitter,
                                         sim::Duration d_min)
    : period_(period), jitter_(jitter), d_(d_min) {
  RTHV_PRECONDITION(period_.is_positive(), "analysis/periodic-period-positive");
  RTHV_PRECONDITION(!jitter_.is_negative(), "analysis/periodic-jitter-nonnegative");
  RTHV_PRECONDITION(!d_.is_negative(), "analysis/periodic-dmin-nonnegative");
}

sim::Duration PeriodicJitterModel::at(std::uint64_t q) const {
  const auto n = core::checked_cast<std::int64_t>(q - 1, "analysis/periodic-count");
  const sim::Duration strict =
      core::checked_sub(core::checked_mul(period_, n, "analysis/periodic-delta"),
                        jitter_, "analysis/periodic-delta");
  const sim::Duration floor = core::checked_mul(d_, n, "analysis/periodic-floor");
  return std::max({strict, floor, sim::Duration::zero()});
}

VectorModel::VectorModel(std::vector<sim::Duration> deltas) : deltas_(std::move(deltas)) {
  RTHV_PRECONDITION(!deltas_.empty(), "analysis/vector-nonempty");
  RTHV_PRECONDITION(deltas_.front().is_positive(), "analysis/vector-dmin-positive");
  for (std::size_t i = 1; i < deltas_.size(); ++i) {
    // delta^- functions are non-decreasing in the span.
    RTHV_PRECONDITION(deltas_[i] >= deltas_[i - 1], "analysis/vector-monotone");
  }
}

sim::Duration VectorModel::at(std::uint64_t q) const {
  const std::uint64_t idx = q - 2;
  if (idx < deltas_.size()) return deltas_[idx];
  // Superadditive extension: split q events into full blocks of (l + 1)
  // events (span deltas_.back()) plus a remainder block.
  const std::uint64_t l = deltas_.size();
  const std::uint64_t gaps = q - 1;                       // spans are over gaps
  const std::uint64_t full_blocks = gaps / l;             // each block covers l gaps
  const std::uint64_t rest_gaps = gaps % l;
  sim::Duration total =
      core::checked_mul(deltas_.back(), full_blocks, "analysis/vector-extension");
  if (rest_gaps > 0) {
    total = core::checked_add(total, deltas_[rest_gaps - 1], "analysis/vector-extension");
  }
  return total;
}

TraceModel::TraceModel(const std::vector<sim::TimePoint>& activations) {
  RTHV_PRECONDITION(activations.size() >= 2, "analysis/trace-two-events");
  for (std::size_t i = 1; i < activations.size(); ++i) {
    RTHV_PRECONDITION(activations[i] >= activations[i - 1], "analysis/trace-sorted");
  }
  const std::size_t n = activations.size();
  spans_.resize(n - 1, sim::Duration::max());
  // spans_[k-2] (k events) = min over windows of k consecutive events.
  for (std::size_t k = 2; k <= n; ++k) {
    sim::Duration best = sim::Duration::max();
    for (std::size_t i = 0; i + k <= n; ++i) {
      best = std::min(best, activations[i + k - 1] - activations[i]);
    }
    spans_[k - 2] = best;
  }
}

sim::Duration TraceModel::at(std::uint64_t q) const {
  const std::uint64_t idx = q - 2;
  if (idx < spans_.size()) return spans_[idx];
  // Extend with the average slope of the last recorded span (conservative
  // linear continuation: the whole-trace span repeated).
  const sim::Duration whole = spans_.back();
  const auto whole_gaps = static_cast<std::int64_t>(spans_.size());
  const std::uint64_t gaps = q - 1;
  const std::int64_t full =
      core::checked_cast<std::int64_t>(gaps, "analysis/trace-extension") / whole_gaps;
  const std::int64_t rest =
      core::checked_cast<std::int64_t>(gaps, "analysis/trace-extension") % whole_gaps;
  sim::Duration total = core::checked_mul(whole, full, "analysis/trace-extension");
  if (rest > 0) {
    total = core::checked_add(total, spans_[static_cast<std::size_t>(rest - 1)],
                              "analysis/trace-extension");
  }
  return total;
}

BurstModel::BurstModel(sim::Duration outer_period, std::uint32_t burst_size,
                       sim::Duration inner_distance)
    : period_(outer_period), size_(burst_size), inner_(inner_distance) {
  RTHV_PRECONDITION(period_.is_positive(), "analysis/burst-period-positive");
  RTHV_PRECONDITION(size_ >= 1, "analysis/burst-size-positive");
  RTHV_PRECONDITION(inner_.is_positive() || size_ == 1,
                    "analysis/burst-inner-positive");
  // The burst must fit into its period, or events would reorder.
  RTHV_PRECONDITION(
      core::checked_mul(inner_, std::int64_t{size_} - 1, "analysis/burst-span") <
          period_,
      "analysis/burst-fits-period");
}

sim::Duration BurstModel::at(std::uint64_t q) const {
  const std::uint64_t gaps = q - 1;
  const std::uint64_t full = gaps / size_;
  const std::uint64_t rest = gaps % size_;
  return core::checked_add(core::checked_mul(period_, full, "analysis/burst-delta"),
                           core::checked_mul(inner_, rest, "analysis/burst-delta"),
                           "analysis/burst-delta");
}

std::shared_ptr<MinDistanceFunction> make_sporadic(sim::Duration d_min) {
  return std::make_shared<SporadicModel>(d_min);
}

std::shared_ptr<MinDistanceFunction> make_periodic(sim::Duration period,
                                                   sim::Duration jitter,
                                                   sim::Duration d_min) {
  return std::make_shared<PeriodicJitterModel>(period, jitter, d_min);
}

std::shared_ptr<MinDistanceFunction> make_bursty(sim::Duration outer_period,
                                                 std::uint32_t burst_size,
                                                 sim::Duration inner_distance) {
  return std::make_shared<BurstModel>(outer_period, burst_size, inner_distance);
}

double long_run_rate_hz(const MinDistanceFunction& delta) {
  constexpr std::uint64_t kLargeQ = 1'000'000;
  const sim::Duration span = delta(kLargeQ);
  RTHV_PRECONDITION(span.is_positive(), "analysis/rate-unbounded-delta");
  return static_cast<double>(kLargeQ - 1) / span.as_s();
}

double utilization(const MinDistanceFunction& delta, sim::Duration cost) {
  return long_run_rate_hz(delta) * cost.as_s();
}

}  // namespace rthv::analysis
