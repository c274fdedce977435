// Activation traces.
//
// The paper's experiments precompute arrays of interarrival distances and
// feed them to a hardware timer that reprograms itself from the top handler
// (Section 6.1) -- no generation cost is paid at runtime. `Trace` is that
// distance array plus derived views (absolute activation times, statistics,
// delta^- extraction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rthv::workload {

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<sim::Duration> distances);

  /// Builds a trace from absolute activation times (sorted ascending); the
  /// first distance is measured from t = 0 to the first activation.
  [[nodiscard]] static Trace from_activations(const std::vector<sim::TimePoint>& times);

  [[nodiscard]] std::size_t size() const { return distances_.size(); }
  [[nodiscard]] bool empty() const { return distances_.empty(); }
  [[nodiscard]] const std::vector<sim::Duration>& distances() const { return distances_; }
  [[nodiscard]] sim::Duration distance(std::size_t i) const { return distances_.at(i); }

  /// Absolute activation times, starting from `origin`.
  [[nodiscard]] std::vector<sim::TimePoint> activation_times(
      sim::TimePoint origin = sim::TimePoint::origin()) const;

  /// Time of the last activation (sum of all distances).
  [[nodiscard]] sim::Duration span() const;

  /// Mean interarrival distance.
  [[nodiscard]] sim::Duration mean_distance() const;

  /// Smallest distance between consecutive activations.
  [[nodiscard]] sim::Duration min_distance() const;

  /// Minimum-distance vector delta^-[l] of the trace: entry i is the
  /// smallest span covering i + 2 consecutive activations.
  [[nodiscard]] std::vector<sim::Duration> delta_vector(std::size_t depth) const;

  /// Long-term activation rate in events per second.
  [[nodiscard]] double rate_hz() const;

  /// Appends another trace's distances (concatenation in time).
  void append(const Trace& other);

  /// Returns the first `n` activations as a sub-trace.
  [[nodiscard]] Trace prefix(std::size_t n) const;

  /// CSV persistence: a 'distance_ns' header, then one non-negative integer
  /// distance (in nanoseconds) per line. load_csv throws std::runtime_error
  /// naming the line of a malformed row.
  void save_csv(std::ostream& os) const;
  [[nodiscard]] static Trace load_csv(std::istream& is);
  void save_csv_file(const std::string& path) const;
  [[nodiscard]] static Trace load_csv_file(const std::string& path);

 private:
  std::vector<sim::Duration> distances_;
};

}  // namespace rthv::workload
