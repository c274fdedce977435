#include "stats/summary.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rthv::stats {

void Summary::add(sim::Duration sample) { samples_.push_back(sample); }

void Summary::merge(const Summary& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

sim::Duration Summary::mean() const {
  assert(!empty());
  // Accumulate quotient and remainder separately to stay exact for sample
  // sums that would overflow 64-bit nanoseconds.
  const auto n = static_cast<std::int64_t>(samples_.size());
  std::int64_t quot = 0;
  std::int64_t rem = 0;
  for (const auto s : samples_) {
    quot += s.count_ns() / n;
    rem += s.count_ns() % n;
    quot += rem / n;
    rem %= n;
  }
  return sim::Duration::ns(quot);
}

sim::Duration Summary::min() const {
  assert(!empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

sim::Duration Summary::max() const {
  assert(!empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

sim::Duration Summary::stddev() const {
  assert(!empty());
  const double m = static_cast<double>(mean().count_ns());
  double acc = 0;
  for (const auto s : samples_) {
    const double d = static_cast<double>(s.count_ns()) - m;
    acc += d * d;
  }
  return sim::Duration::ns(static_cast<std::int64_t>(
      std::sqrt(acc / static_cast<double>(samples_.size()))));
}

sim::Duration Summary::percentile(double p) const {
  assert(!empty());
  assert(p >= 0.0 && p <= 100.0);
  if (p == 0.0) return min();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  // Nearest rank: the rank-th smallest sample, selected on a copy.
  std::vector<sim::Duration> copy = samples_;
  const auto nth = copy.begin() + static_cast<std::ptrdiff_t>(std::min(rank, copy.size()) - 1);
  std::nth_element(copy.begin(), nth, copy.end());
  return *nth;
}

SlidingAverage::SlidingAverage(std::size_t window) : window_(window) {
  assert(window_ >= 1);
  buffer_.reserve(window_);
}

sim::Duration SlidingAverage::add(sim::Duration sample) {
  if (buffer_.size() < window_) {
    buffer_.push_back(sample);
    sum_ns_ += sample.count_ns();
  } else {
    sum_ns_ -= buffer_[next_].count_ns();
    buffer_[next_] = sample;
    sum_ns_ += sample.count_ns();
    next_ = (next_ + 1) % window_;
  }
  return current();
}

sim::Duration SlidingAverage::current() const {
  assert(!buffer_.empty());
  return sim::Duration::ns(sum_ns_ / static_cast<std::int64_t>(buffer_.size()));
}

}  // namespace rthv::stats
