// Named counters, gauges and fixed-bucket latency histograms with O(1)
// handle-based updates, plus a snapshot type with a deterministic merge.
//
// Registration (string lookup) happens once at setup; hot paths hold a
// handle and touch a single vector slot. A MetricsSnapshot is plain data:
// per-run snapshots captured by exp::RunResult are folded in run-index
// order by exp::BatchRunner consumers, so the aggregate is bit-identical
// for any --jobs value.
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
  /// follows registration order, so equal snapshots serialize identically.
  void write_json(std::ostream& os) const;
};

/// Registration + O(1) update front-end over a MetricsSnapshot.
class MetricsRegistry {
 public:
  struct CounterHandle {
    std::uint32_t index = UINT32_MAX;
  };
  struct GaugeHandle {
    std::uint32_t index = UINT32_MAX;
  };
  struct HistogramHandle {
    std::uint32_t index = UINT32_MAX;
  };

  /// Registering an existing name returns the existing handle; histogram
  /// re-registration with different binning throws std::invalid_argument.
  CounterHandle counter(std::string_view name);
  GaugeHandle gauge(std::string_view name);
  HistogramHandle histogram(std::string_view name, std::int64_t lo_ns,
                            std::int64_t width_ns, std::uint32_t num_buckets);

  void add(CounterHandle h, std::uint64_t delta = 1) {
    data_.counters[h.index].value += delta;
  }
  void set(GaugeHandle h, std::int64_t value) { data_.gauges[h.index].value = value; }
  void observe(HistogramHandle h, std::int64_t sample_ns) {
    data_.histograms[h.index].observe(sample_ns);
  }

  [[nodiscard]] std::uint64_t value(CounterHandle h) const {
    return data_.counters[h.index].value;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const { return data_; }

  /// Rolls the registry back to a previously captured snapshot. Metrics
  /// registered *after* that snapshot are truncated away; because names
  /// register in deterministic order, re-registering them afterwards yields
  /// the same handles again. Handles registered before the snapshot remain
  /// valid across restore.
  void restore(const MetricsSnapshot& snap) { data_ = snap; }

 private:
  MetricsSnapshot data_;
};

}  // namespace rthv::obs
