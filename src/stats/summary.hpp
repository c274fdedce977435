// Order statistics and moments over duration samples.
//
// A Summary is just its sample log: nothing is cached, so min/max are
// linear scans and percentile() selects on a local copy.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::stats {

class Summary {
 public:
  void add(sim::Duration sample);

  /// Appends all of `other`'s samples (in their recorded order). Used to
  /// fold per-run summaries of a parallel sweep back together; merging run
  /// results in index order reproduces the sequential sample order exactly.
  void merge(const Summary& other);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  [[nodiscard]] sim::Duration mean() const;
  [[nodiscard]] sim::Duration min() const;
  [[nodiscard]] sim::Duration max() const;
  [[nodiscard]] sim::Duration stddev() const;

  /// p in [0, 100]; nearest-rank method.
  [[nodiscard]] sim::Duration percentile(double p) const;
  [[nodiscard]] sim::Duration median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<sim::Duration>& samples() const { return samples_; }

  void snapshot_state(sim::StateWriter& w) const { w.pod_vec(samples_); }
  void restore_state(sim::StateReader& r) { r.pod_vec(samples_); }

 private:
  std::vector<sim::Duration> samples_;
};

/// Running mean over a sliding window of the last `window` samples; used to
/// reproduce Fig. 7's "average IRQ latency over IRQ events" series.
class SlidingAverage {
 public:
  explicit SlidingAverage(std::size_t window);

  /// Adds a sample and returns the current windowed mean.
  sim::Duration add(sim::Duration sample);

  [[nodiscard]] sim::Duration current() const;
  [[nodiscard]] std::size_t filled() const { return buffer_.size(); }

 private:
  std::size_t window_;
  std::vector<sim::Duration> buffer_;  // ring buffer
  std::size_t next_ = 0;
  std::int64_t sum_ns_ = 0;
};

}  // namespace rthv::stats
