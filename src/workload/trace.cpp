#include "workload/trace.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "sim/text_input.hpp"

namespace rthv::workload {

Trace::Trace(std::vector<sim::Duration> distances) : distances_(std::move(distances)) {
#ifndef NDEBUG
  for (const auto d : distances_) assert(!d.is_negative());
#endif
}

Trace Trace::from_activations(const std::vector<sim::TimePoint>& times) {
  std::vector<sim::Duration> d;
  d.reserve(times.size());
  sim::TimePoint prev = sim::TimePoint::origin();
  for (const auto t : times) {
    assert(t >= prev && "activation times must be sorted");
    d.push_back(t - prev);
    prev = t;
  }
  return Trace(std::move(d));
}

std::vector<sim::TimePoint> Trace::activation_times(sim::TimePoint origin) const {
  std::vector<sim::TimePoint> out;
  out.reserve(distances_.size());
  sim::TimePoint t = origin;
  for (const auto d : distances_) {
    t += d;
    out.push_back(t);
  }
  return out;
}

sim::Duration Trace::span() const {
  return std::accumulate(distances_.begin(), distances_.end(), sim::Duration::zero());
}

sim::Duration Trace::mean_distance() const {
  assert(!empty());
  return sim::Duration::ns(span().count_ns() / static_cast<std::int64_t>(size()));
}

sim::Duration Trace::min_distance() const {
  assert(!empty());
  return *std::min_element(distances_.begin(), distances_.end());
}

std::vector<sim::Duration> Trace::delta_vector(std::size_t depth) const {
  assert(depth >= 1);
  assert(size() >= depth + 1 && "trace too short for requested depth");
  std::vector<sim::Duration> out(depth, sim::Duration::max());
  const auto times = activation_times();
  for (std::size_t span_gaps = 1; span_gaps <= depth; ++span_gaps) {
    for (std::size_t i = 0; i + span_gaps < times.size(); ++i) {
      out[span_gaps - 1] = std::min(out[span_gaps - 1], times[i + span_gaps] - times[i]);
    }
  }
  return out;
}

double Trace::rate_hz() const {
  const auto s = span();
  if (!s.is_positive()) return 0.0;
  return static_cast<double>(size()) / s.as_s();
}

void Trace::append(const Trace& other) {
  distances_.insert(distances_.end(), other.distances_.begin(), other.distances_.end());
}

Trace Trace::prefix(std::size_t n) const {
  assert(n <= size());
  return Trace(std::vector<sim::Duration>(distances_.begin(),
                                          distances_.begin() + static_cast<std::ptrdiff_t>(n)));
}

void Trace::save_csv(std::ostream& os) const {
  os << "distance_ns\n";
  for (const auto d : distances_) os << d.count_ns() << "\n";
}

Trace Trace::load_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "distance_ns") {
    throw std::runtime_error("trace CSV: missing 'distance_ns' header");
  }
  std::vector<sim::Duration> d;
  for (std::size_t line_no = 2; std::getline(is, line); ++line_no) {
    if (line.empty()) continue;
    const auto distance = sim::parse_duration(line, sim::Duration::ns(1));
    if (!distance) {
      throw std::runtime_error("trace CSV line " + std::to_string(line_no) +
                               ": expected a non-negative distance_ns, got '" + line + "'");
    }
    d.push_back(*distance);
  }
  return Trace(std::move(d));
}

void Trace::save_csv_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open trace file for writing: " + path);
  save_csv(os);
}

Trace Trace::load_csv_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open trace file: " + path);
  return load_csv(is);
}

}  // namespace rthv::workload
