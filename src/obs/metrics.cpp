#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>

namespace rthv::obs {

namespace {

// Metric names are identifiers chosen in-source, but escape defensively so
// the JSON stays well-formed whatever ends up in a name.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

template <typename Vec>
auto* find_by_name(Vec& entries, std::string_view name) {
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [name](const auto& e) { return e.name == name; });
  return it == entries.end() ? nullptr : &*it;
}

// The entry of `entries` named `name`: entry i when its name matches (the
// common case when merging snapshots of identically configured systems),
// else the by-name match; nullptr when there is none. Catalog and interned
// names share storage, so entry i is usually the very same view and the
// characters are compared only when it is not.
template <typename Vec>
auto* find_at_or_by_name(Vec& entries, std::size_t i, std::string_view name) {
  if (i < entries.size()) {
    const std::string_view mine = entries[i].name;
    if ((mine.data() == name.data() && mine.size() == name.size()) || mine == name) {
      return &entries[i];
    }
  }
  return find_by_name(entries, name);
}

}  // namespace

std::string_view intern_name(std::string_view name) {
  static std::mutex mu;
  // std::set nodes never move, so the strings' characters stay put.
  static std::set<std::string, std::less<>> names;
  const std::lock_guard<std::mutex> lock(mu);
  auto it = names.find(name);
  if (it == names.end()) it = names.emplace(name).first;
  return *it;
}

void BucketCounts::add(std::size_t i, std::uint64_t n) {
  assert(i < size_);
  if (n == 0) return;
  if (i - first_ >= window_.size()) cover(i, i);  // wraps when i < first_
  window_[i - first_] += n;
}

void BucketCounts::add(const BucketCounts& other) {
  assert(other.size_ == size_);
  if (other.window_.empty()) return;
  cover(other.first_, other.first_ + other.window_.size() - 1);
  const std::size_t offset = other.first_ - first_;
  for (std::size_t k = 0; k < other.window_.size(); ++k) window_[offset + k] += other.window_[k];
}

void BucketCounts::cover(std::size_t lo, std::size_t hi) {
  assert(lo <= hi && hi < size_);
  if (window_.empty()) {
    first_ = static_cast<std::uint32_t>(lo);
    window_.assign(hi - lo + 1, 0);
    return;
  }
  const std::size_t last = first_ + window_.size() - 1;
  if (lo >= first_ && hi <= last) return;
  const std::size_t new_first = std::min<std::size_t>(lo, first_);
  std::vector<std::uint64_t> grown(std::max(hi, last) - new_first + 1);
  std::copy(window_.begin(), window_.end(),
            grown.begin() + static_cast<std::ptrdiff_t>(first_ - new_first));
  window_ = std::move(grown);
  first_ = static_cast<std::uint32_t>(new_first);
}

std::size_t MetricsSnapshot::Histogram::bucket_of(std::int64_t sample_ns) const {
  if (sample_ns < lo_ns) return buckets.size();
  const auto bin = static_cast<std::uint64_t>(sample_ns - lo_ns) /
                   static_cast<std::uint64_t>(width_ns);
  return bin < buckets.size() ? static_cast<std::size_t>(bin) : buckets.size();
}

void MetricsSnapshot::Histogram::observe(std::int64_t sample_ns) {
  if (count == 0) {
    min_ns = max_ns = sample_ns;
  } else {
    min_ns = std::min(min_ns, sample_ns);
    max_ns = std::max(max_ns, sample_ns);
  }
  ++count;
  sum_ns += sample_ns;
  if (sample_ns < lo_ns) {
    ++underflow;
    return;
  }
  const std::size_t bin = bucket_of(sample_ns);
  if (bin == buckets.size()) {
    ++overflow;
  } else {
    buckets.add(bin, 1);
  }
}

void MetricsSnapshot::add_counter(std::string_view name, std::uint64_t delta) {
  if (auto* c = find_by_name(counters, name)) {
    c->value += delta;
    return;
  }
  counters.push_back(Counter{name, delta});
}

void MetricsSnapshot::set_gauge(std::string_view name, std::int64_t value) {
  if (auto* g = find_by_name(gauges, name)) {
    g->value = value;
    return;
  }
  gauges.push_back(Gauge{name, value});
}

MetricsSnapshot::Histogram& MetricsSnapshot::add_histogram(std::string_view name,
                                                           std::int64_t lo_ns,
                                                           std::int64_t width_ns,
                                                           std::uint32_t num_buckets) {
  if (width_ns <= 0 || num_buckets == 0) {
    throw std::invalid_argument("MetricsSnapshot::add_histogram: invalid binning");
  }
  return histograms.emplace_back(Histogram{.name = name,
                                           .lo_ns = lo_ns,
                                           .width_ns = width_ns,
                                           .buckets = BucketCounts(num_buckets)});
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  // All or nothing: every binning is checked before anything changes.
  for (std::size_t i = 0; i < other.histograms.size(); ++i) {
    const auto& h = other.histograms[i];
    const auto* mine = find_at_or_by_name(histograms, i, h.name);
    if (mine != nullptr && !mine->same_binning(h)) {
      throw std::invalid_argument("MetricsSnapshot::merge: histogram '" + std::string(h.name) +
                                  "' binning mismatch");
    }
  }
  for (std::size_t i = 0; i < other.counters.size(); ++i) {
    const auto& c = other.counters[i];
    if (auto* mine = find_at_or_by_name(counters, i, c.name)) {
      mine->value += c.value;
    } else {
      counters.push_back(c);
    }
  }
  for (std::size_t i = 0; i < other.gauges.size(); ++i) {
    const auto& g = other.gauges[i];
    if (auto* mine = find_at_or_by_name(gauges, i, g.name)) {
      mine->value = g.value;
    } else {
      gauges.push_back(g);
    }
  }
  for (std::size_t i = 0; i < other.histograms.size(); ++i) {
    const auto& h = other.histograms[i];
    auto* mine = find_at_or_by_name(histograms, i, h.name);
    if (mine == nullptr) {
      histograms.push_back(h);
      continue;
    }
    if (h.count == 0) continue;  // nothing observed: every field is zero
    mine->buckets.add(h.buckets);
    mine->underflow += h.underflow;
    mine->overflow += h.overflow;
    mine->sum_ns += h.sum_ns;
    mine->min_ns = mine->count > 0 ? std::min(mine->min_ns, h.min_ns) : h.min_ns;
    mine->max_ns = mine->count > 0 ? std::max(mine->max_ns, h.max_ns) : h.max_ns;
    mine->count += h.count;
  }
}

const MetricsSnapshot::Counter* MetricsSnapshot::find_counter(std::string_view name) const {
  return find_by_name(counters, name);
}

const MetricsSnapshot::Gauge* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const MetricsSnapshot::Histogram* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const auto* c = find_counter(name);
  return c != nullptr ? c->value : 0;
}

void MetricsSnapshot::write_text(std::ostream& os) const {
  for (const auto& c : counters) os << c.name << " " << c.value << "\n";
  for (const auto& g : gauges) os << g.name << " " << g.value << "\n";
  for (const auto& h : histograms) {
    os << h.name << " count=" << h.count;
    if (h.count > 0) {
      os << " sum_ns=" << h.sum_ns << " min_ns=" << h.min_ns << " max_ns=" << h.max_ns;
    }
    os << " underflow=" << h.underflow << " overflow=" << h.overflow << "\n";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      const std::int64_t edge = h.lo_ns + static_cast<std::int64_t>(i) * h.width_ns;
      os << "  [" << edge << ", " << edge + h.width_ns << ") " << h.buckets[i] << "\n";
    }
  }
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"rthv-metrics-v1\",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(os, counters[i].name);
    os << ": " << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(os, gauges[i].name);
    os << ": " << gauges[i].value;
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    os << (i == 0 ? "\n    " : ",\n    ");
    write_json_string(os, h.name);
    os << ": { \"lo_ns\": " << h.lo_ns << ", \"width_ns\": " << h.width_ns
       << ", \"count\": " << h.count << ", \"sum_ns\": " << h.sum_ns
       << ", \"min_ns\": " << (h.count > 0 ? h.min_ns : 0)
       << ", \"max_ns\": " << (h.count > 0 ? h.max_ns : 0)
       << ", \"underflow\": " << h.underflow << ", \"overflow\": " << h.overflow
       << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b == 0 ? "" : ", ") << h.buckets[b];
    }
    os << "] }";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

}  // namespace rthv::obs
