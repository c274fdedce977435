// Named counters, gauges and fixed-bucket latency histograms as one plain
// snapshot type with a deterministic merge.
//
// Nothing updates a MetricsSnapshot while a simulation runs: the system
// derives every metric from its own state when it is read
// (core::HypervisorSystem::metrics_snapshot()), so there is no live metric
// state to checkpoint. Per-run snapshots captured by exp::RunResult are
// folded in run-index order by exp::BatchRunner consumers, so the aggregate
// is bit-identical for any --jobs value.
//
// Merge semantics (by metric name):
//   counters    -- summed
//   gauges      -- last write wins, in merge order
//   histograms  -- buckets / under- / overflow / count / sum added; the
//                  binning (lo, width, bucket count) must match exactly or
//                  merge() throws std::invalid_argument.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace rthv::obs {

struct MetricsSnapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };

  struct Gauge {
    std::string name;
    std::int64_t value = 0;
  };

  struct Histogram {
    std::string name;
    std::int64_t lo_ns = 0;      // inclusive lower edge of bucket 0
    std::int64_t width_ns = 1;   // uniform bucket width
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;  // samples below lo_ns
    std::uint64_t overflow = 0;   // samples at/after the last bucket's edge
    std::uint64_t count = 0;
    std::int64_t sum_ns = 0;
    std::int64_t min_ns = 0;  // valid only when count > 0
    std::int64_t max_ns = 0;  // valid only when count > 0

    void observe(std::int64_t sample_ns);
    [[nodiscard]] bool same_binning(const Histogram& other) const {
      return lo_ns == other.lo_ns && width_ns == other.width_ns &&
             buckets.size() == other.buckets.size();
    }
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Histogram> histograms;

  /// Adds `delta` to the named counter, creating it at the end of the list
  /// if new (so insertion order -- and therefore output order -- is
  /// deterministic).
  void add_counter(std::string_view name, std::uint64_t delta);

  /// Sets the named gauge, creating it if new.
  void set_gauge(std::string_view name, std::int64_t value);

  /// Appends an empty histogram of `num_buckets` buckets `width_ns` wide
  /// from `lo_ns` and returns it for observe(). Throws
  /// std::invalid_argument on a non-positive width or zero buckets.
  Histogram& add_histogram(std::string_view name, std::int64_t lo_ns,
                           std::int64_t width_ns, std::uint32_t num_buckets);

  /// Folds `other` into this snapshot (see merge semantics above). Throws
  /// std::invalid_argument when a histogram's binning does not match.
  void merge(const MetricsSnapshot& other);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Human-readable dump: one "name value" line per metric, histograms as
  /// count/mean/min/max plus non-zero buckets.
  void write_text(std::ostream& os) const;

  /// Machine-readable dump ({"schema": "rthv-metrics-v1", ...}); key order
  /// follows insertion order, so equal snapshots serialize identically.
  void write_json(std::ostream& os) const;
};

}  // namespace rthv::obs
