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
// Names are views. A snapshot stores each name as a std::string_view and
// owns none of their characters, so every name passed in must live as long
// as the process: a literal -- the fixed names of obs/metric_catalog.hpp --
// or a name returned by intern_name(). Capturing, copying and merging a
// snapshot therefore copy no characters. add_counter, set_gauge and
// add_histogram do not accept a std::string: its characters would die with
// it, so passing one is a compile error -- intern it first.
//
// Merge semantics (by metric name):
//   counters    -- summed
//   gauges      -- last write wins, in merge order
//   histograms  -- buckets / under- / overflow / count / sum added; the
//                  binning (lo, width, bucket count) must match exactly or
//                  merge() throws std::invalid_argument.
// merge() is all-or-nothing: it checks the binning of every histogram the
// two snapshots share before it changes anything, so a throwing merge
// leaves the target as it was. A name new to the target is appended at the
// end of its list. merge() first compares entry i of `other` with entry i
// of the same list here -- snapshots of identically configured systems list
// the same names in the same order -- and searches by name only when those
// two names differ. Two names match when they are the same view (catalog
// and interned names share storage, so this is the common case) or, failing
// that, when their characters are equal. Within one list a snapshot's names
// are unique (metrics_snapshot() emits each name once; add_counter,
// set_gauge and merge never add a duplicate), so the positional match is the
// entry the by-name search would find.
//
// Bucket storage. A histogram's counts are a BucketCounts: a fixed number of
// buckets of which only one dense window [first, first + n), covering every
// non-zero bucket, is stored. Indexing and iteration yield every bucket in
// order with 0 outside the window, so readers see the dense counts; a run
// of 10 IRQs stores at most 10 words per histogram instead of 85, and an
// empty histogram stores and allocates nothing.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace rthv::obs {

/// A view of `name` whose characters live as long as the process. Equal
/// names share one copy. Thread-safe (one mutex); meant for names built
/// once from a config, never for a per-run path.
[[nodiscard]] std::string_view intern_name(std::string_view name);

/// A std::string of any value category: a name a snapshot must not keep.
template <typename S>
concept OwnedString = std::same_as<std::remove_cvref_t<S>, std::string>;

/// The counts of a fixed number of histogram buckets, of which only the
/// window [first, first + stored()) that covers every non-zero bucket is
/// stored (see "Bucket storage" above). Reads see all size() counts.
class BucketCounts {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint64_t;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::uint64_t;

    const_iterator() = default;
    const_iterator(const BucketCounts* counts, std::size_t i) : counts_(counts), i_(i) {}
    std::uint64_t operator*() const { return (*counts_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const auto old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& other) const { return i_ == other.i_; }

   private:
    const BucketCounts* counts_ = nullptr;
    std::size_t i_ = 0;
  };

  BucketCounts() = default;
  /// `size` buckets, all zero; stores nothing.
  explicit BucketCounts(std::uint32_t size) : size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Words stored: the width of the window, 0 when no count was added.
  [[nodiscard]] std::size_t stored() const { return window_.size(); }

  /// Count of bucket i (< size()); 0 outside the stored window.
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const {
    const std::size_t k = i - first_;  // wraps above the window when i < first_
    return k < window_.size() ? window_[k] : 0;
  }
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  /// Adds n to bucket i (< size()), widening the window to cover it.
  void add(std::size_t i, std::uint64_t n);
  /// Adds every count of `other`, which has the same size().
  void add(const BucketCounts& other);
  /// Widens the window to cover buckets [lo, hi] (lo <= hi < size()) with
  /// no count added, so later add()s inside it never reallocate.
  void cover(std::size_t lo, std::size_t hi);

 private:
  std::uint32_t size_ = 0;
  std::uint32_t first_ = 0;  // bucket index of window_[0]
  std::vector<std::uint64_t> window_;
};

struct MetricsSnapshot {
  struct Counter {
    std::string_view name;
    std::uint64_t value = 0;
  };

  struct Gauge {
    std::string_view name;
    std::int64_t value = 0;
  };

  struct Histogram {
    std::string_view name;
    std::int64_t lo_ns = 0;      // inclusive lower edge of bucket 0
    std::int64_t width_ns = 1;   // uniform bucket width
    BucketCounts buckets;
    std::uint64_t underflow = 0;  // samples below lo_ns
    std::uint64_t overflow = 0;   // samples at/after the last bucket's edge
    std::uint64_t count = 0;
    std::int64_t sum_ns = 0;
    std::int64_t min_ns = 0;  // valid only when count > 0
    std::int64_t max_ns = 0;  // valid only when count > 0

    void observe(std::int64_t sample_ns);
    /// The bucket sample_ns falls in, or buckets.size() when it falls below
    /// lo_ns or at/after the last bucket's edge.
    [[nodiscard]] std::size_t bucket_of(std::int64_t sample_ns) const;
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
  template <OwnedString S>
  void add_counter(S&& name, std::uint64_t delta) = delete;

  /// Sets the named gauge, creating it if new.
  void set_gauge(std::string_view name, std::int64_t value);
  template <OwnedString S>
  void set_gauge(S&& name, std::int64_t value) = delete;

  /// Appends an empty histogram of `num_buckets` buckets `width_ns` wide
  /// from `lo_ns` and returns it for observe(); the caller keeps histogram
  /// names unique. Throws std::invalid_argument on a non-positive width or
  /// zero buckets.
  Histogram& add_histogram(std::string_view name, std::int64_t lo_ns,
                           std::int64_t width_ns, std::uint32_t num_buckets);
  template <OwnedString S>
  Histogram& add_histogram(S&& name, std::int64_t lo_ns, std::int64_t width_ns,
                           std::uint32_t num_buckets) = delete;

  /// Folds `other` into this snapshot (see merge semantics above). Throws
  /// std::invalid_argument, changing nothing, when a histogram's binning
  /// does not match.
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
