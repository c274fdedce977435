// Differential test of obs::BucketCounts, the windowed bucket storage of
// MetricsSnapshot::Histogram, against a dense std::vector<std::uint64_t>
// reference:
//  * observing samples (in range, under- and overflow, 1-bucket and
//    full-width windows) gives the counts the dense histogram gives, and
//    stores exactly the window between the lowest and highest non-zero bin;
//  * merges in random groupings and orders, empty operands included, and
//    copies keep every count;
//  * operator[], iteration and size() read the dense counts, and
//    write_json, write_text, write_histogram_csv and write_histogram_ascii
//    render byte-identically to a renderer of the dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "stats/export.hpp"

namespace rthv::obs {
namespace {

using Histogram = MetricsSnapshot::Histogram;

/// The dense histogram every BucketCounts read is checked against.
struct Dense {
  std::int64_t lo_ns = 0;
  std::int64_t width_ns = 1;
  std::vector<std::uint64_t> buckets;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;
  std::int64_t sum_ns = 0;
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;

  void observe(std::int64_t x) {
    min_ns = count == 0 ? x : std::min(min_ns, x);
    max_ns = count == 0 ? x : std::max(max_ns, x);
    ++count;
    sum_ns += x;
    if (x < lo_ns) {
      ++underflow;
    } else if ((x - lo_ns) / width_ns >= static_cast<std::int64_t>(buckets.size())) {
      ++overflow;
    } else {
      ++buckets[static_cast<std::size_t>((x - lo_ns) / width_ns)];
    }
  }

  void merge(const Dense& o) {
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += o.buckets[b];
    if (o.count > 0) {
      min_ns = count == 0 ? o.min_ns : std::min(min_ns, o.min_ns);
      max_ns = count == 0 ? o.max_ns : std::max(max_ns, o.max_ns);
    }
    underflow += o.underflow;
    overflow += o.overflow;
    count += o.count;
    sum_ns += o.sum_ns;
  }
};

// --- renderers of the dense reference (the formats of metrics.cpp and
// stats/export.cpp, written over a plain vector) ------------------------------

double edge_us(const Dense& d, std::size_t i) {
  return sim::Duration::ns(d.lo_ns + static_cast<std::int64_t>(i) * d.width_ns).as_us();
}

std::string dense_json(const Dense& d) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"rthv-metrics-v1\",\n  \"counters\": {},\n  \"gauges\": {},\n"
     << "  \"histograms\": {\n    \"h\": { \"lo_ns\": " << d.lo_ns << ", \"width_ns\": "
     << d.width_ns << ", \"count\": " << d.count << ", \"sum_ns\": " << d.sum_ns
     << ", \"min_ns\": " << (d.count > 0 ? d.min_ns : 0)
     << ", \"max_ns\": " << (d.count > 0 ? d.max_ns : 0) << ", \"underflow\": " << d.underflow
     << ", \"overflow\": " << d.overflow << ", \"buckets\": [";
  for (std::size_t b = 0; b < d.buckets.size(); ++b) os << (b == 0 ? "" : ", ") << d.buckets[b];
  os << "] }\n  }\n}\n";
  return os.str();
}

std::string dense_text(const Dense& d) {
  std::ostringstream os;
  os << "h count=" << d.count;
  if (d.count > 0) os << " sum_ns=" << d.sum_ns << " min_ns=" << d.min_ns << " max_ns=" << d.max_ns;
  os << " underflow=" << d.underflow << " overflow=" << d.overflow << "\n";
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    if (d.buckets[i] == 0) continue;
    const std::int64_t edge = d.lo_ns + static_cast<std::int64_t>(i) * d.width_ns;
    os << "  [" << edge << ", " << edge + d.width_ns << ") " << d.buckets[i] << "\n";
  }
  return os.str();
}

std::string dense_csv(const Dense& d) {
  std::ostringstream os;
  os << "bin_lo_us,bin_hi_us,count\n";
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    os << edge_us(d, i) << "," << edge_us(d, i + 1) << "," << d.buckets[i] << "\n";
  }
  return os.str();
}

std::string dense_ascii(const Dense& d) {
  std::ostringstream os;
  const std::uint64_t peak = *std::max_element(d.buckets.begin(), d.buckets.end());
  if (peak == 0) return "(empty histogram)\n";
  const double log_peak = std::log1p(static_cast<double>(peak));
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    if (d.buckets[i] == 0) continue;
    const auto bar =
        static_cast<std::size_t>(std::log1p(static_cast<double>(d.buckets[i])) / log_peak * 60.0);
    os << "[" << edge_us(d, i) << ", " << edge_us(d, i + 1) << ") "
       << std::string(std::max<std::size_t>(bar, 1), '#') << " " << d.buckets[i] << "\n";
  }
  if (d.underflow > 0) os << "underflow: " << d.underflow << "\n";
  if (d.overflow > 0) os << "overflow: " << d.overflow << "\n";
  return os.str();
}

/// One histogram and its dense twin, built and merged side by side.
struct Pair {
  MetricsSnapshot snap;  // holds one histogram named "h"
  Dense dense;
};

Pair make_pair(std::int64_t lo_ns, std::int64_t width_ns, std::uint32_t size) {
  Pair p;
  (void)p.snap.add_histogram("h", lo_ns, width_ns, size);
  p.dense.lo_ns = lo_ns;
  p.dense.width_ns = width_ns;
  p.dense.buckets.assign(size, 0);
  return p;
}

void observe(Pair& p, std::int64_t x) {
  p.snap.histograms[0].observe(x);
  p.dense.observe(x);
}

/// The lowest and highest non-zero bucket of `d`; {size, 0} when all are 0.
std::pair<std::size_t, std::size_t> occupied(const Dense& d) {
  std::size_t lo = d.buckets.size();
  std::size_t hi = 0;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    if (d.buckets[i] != 0) {
      lo = std::min(lo, i);
      hi = i;
    }
  }
  return {lo, hi};
}

/// Every read of `h` -- size, indexing, iteration, stored window and the
/// four renderings -- against the dense reference.
void expect_same(const Histogram& h, const Dense& d, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(h.buckets.size(), d.buckets.size());
  for (std::size_t i = 0; i < d.buckets.size(); ++i) ASSERT_EQ(h.buckets[i], d.buckets[i]) << i;
  std::vector<std::uint64_t> iterated;
  for (const auto b : h.buckets) iterated.push_back(b);
  ASSERT_EQ(iterated, d.buckets);

  const auto [lo, hi] = occupied(d);
  if (lo == d.buckets.size()) {
    EXPECT_EQ(h.buckets.stored(), 0u) << "an empty histogram stores nothing";
  } else {
    EXPECT_GE(h.buckets.stored(), hi - lo + 1) << "the window covers every non-zero bucket";
  }

  MetricsSnapshot snap;
  snap.histograms.push_back(h);
  snap.histograms.back().name = "h";
  std::ostringstream json;
  snap.write_json(json);
  EXPECT_EQ(json.str(), dense_json(d));
  std::ostringstream text;
  snap.write_text(text);
  EXPECT_EQ(text.str(), dense_text(d));
  std::ostringstream csv;
  stats::write_histogram_csv(csv, h);
  EXPECT_EQ(csv.str(), dense_csv(d));
  std::ostringstream ascii;
  stats::write_histogram_ascii(ascii, h);
  EXPECT_EQ(ascii.str(), dense_ascii(d));
}

/// The stored window is exactly [lowest, highest] non-zero bin when the
/// histogram was built by observe() alone.
void expect_tight_window(const Histogram& h, const Dense& d) {
  const auto [lo, hi] = occupied(d);
  EXPECT_EQ(h.buckets.stored(), lo == d.buckets.size() ? 0 : hi - lo + 1);
}

struct Binning {
  std::int64_t lo_ns;
  std::int64_t width_ns;
  std::uint32_t size;
};

Binning random_binning(std::mt19937_64& rng) {
  constexpr std::uint32_t kSizes[] = {1, 2, 3, 8, 85};
  return {static_cast<std::int64_t>(rng() % 2001) - 1000,
          1 + static_cast<std::int64_t>(rng() % 500), kSizes[rng() % std::size(kSizes)]};
}

/// A sample from one bucket width under the first edge to one past the
/// last edge.
std::int64_t random_sample(std::mt19937_64& rng, const Binning& b) {
  const auto span = static_cast<std::uint64_t>(b.width_ns * (b.size + 2));
  return b.lo_ns - b.width_ns + static_cast<std::int64_t>(rng() % span);
}

/// A sample inside bucket `bin`.
std::int64_t sample_in_bin(std::mt19937_64& rng, const Binning& b, std::size_t bin) {
  return b.lo_ns + static_cast<std::int64_t>(bin) * b.width_ns +
         static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(b.width_ns));
}

Pair random_pair(std::mt19937_64& rng, const Binning& b) {
  Pair p = make_pair(b.lo_ns, b.width_ns, b.size);
  switch (rng() % 5) {
    case 0:  // empty
      break;
    case 1: {  // one bucket only
      const std::size_t bin = rng() % b.size;
      for (std::size_t k = 0; k < 1 + rng() % 4; ++k) observe(p, sample_in_bin(rng, b, bin));
      break;
    }
    case 2:  // the first and the last bucket: a full-width window
      observe(p, sample_in_bin(rng, b, 0));
      observe(p, sample_in_bin(rng, b, b.size - 1));
      break;
    case 3:  // tails only
      observe(p, b.lo_ns - 1 - static_cast<std::int64_t>(rng() % 100));
      observe(p, b.lo_ns + b.width_ns * b.size + static_cast<std::int64_t>(rng() % 100));
      break;
    default:
      for (std::size_t k = 0; k < rng() % 12; ++k) observe(p, random_sample(rng, b));
      break;
  }
  return p;
}

TEST(BucketCountsTest, DefaultAndSizedAreEmpty) {
  const BucketCounts none;
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.begin(), none.end());
  const BucketCounts sized(85);
  EXPECT_EQ(sized.size(), 85u);
  EXPECT_EQ(sized.stored(), 0u);
  std::size_t n = 0;
  for (const auto b : sized) {
    EXPECT_EQ(b, 0u);
    ++n;
  }
  EXPECT_EQ(n, 85u);
}

TEST(BucketCountsTest, AddWidensTheWindowBothWays) {
  BucketCounts c(10);
  c.add(5, 2);
  EXPECT_EQ(c.stored(), 1u);
  c.add(5, 0);  // a zero add needs no window
  c.add(7, 1);
  EXPECT_EQ(c.stored(), 3u);
  c.add(2, 4);
  EXPECT_EQ(c.stored(), 6u);
  const std::vector<std::uint64_t> expected = {0, 0, 4, 0, 0, 2, 0, 1, 0, 0};
  EXPECT_EQ(std::vector<std::uint64_t>(c.begin(), c.end()), expected);
  c.cover(0, 9);  // widening adds no count
  EXPECT_EQ(c.stored(), 10u);
  EXPECT_EQ(std::vector<std::uint64_t>(c.begin(), c.end()), expected);
}

TEST(BucketCountsTest, ObserveMatchesDenseReference) {
  std::mt19937_64 rng(26);
  for (int trial = 0; trial < 400; ++trial) {
    const Binning b = random_binning(rng);
    const Pair p = random_pair(rng, b);
    expect_same(p.snap.histograms[0], p.dense, "trial " + std::to_string(trial));
    expect_tight_window(p.snap.histograms[0], p.dense);
  }
}

TEST(BucketCountsTest, MergesInAnyGroupingAndOrderMatchDenseReference) {
  std::mt19937_64 rng(2601);
  for (int trial = 0; trial < 300; ++trial) {
    const Binning b = random_binning(rng);
    std::vector<Pair> parts;
    for (std::size_t k = 0; k < 1 + rng() % 6; ++k) parts.push_back(random_pair(rng, b));
    // Fold two random parts into one until one is left: every grouping
    // and order of the merges occurs across trials.
    while (parts.size() > 1) {
      const std::size_t into = rng() % parts.size();
      std::size_t from = rng() % (parts.size() - 1);
      if (from >= into) ++from;
      parts[into].snap.merge(parts[from].snap);
      parts[into].dense.merge(parts[from].dense);
      parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(from));
    }
    expect_same(parts[0].snap.histograms[0], parts[0].dense, "trial " + std::to_string(trial));
  }
}

TEST(BucketCountsTest, AddOfCountsMatchesDenseSum) {
  std::mt19937_64 rng(2602);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng() % 90);
    BucketCounts sum(size);
    std::vector<std::uint64_t> dense(size);
    for (std::size_t k = 0; k < rng() % 5; ++k) {
      BucketCounts part(size);
      for (std::size_t j = 0; j < rng() % 6; ++j) {
        const std::size_t i = rng() % size;
        const std::uint64_t n = rng() % 3;
        part.add(i, n);
        dense[i] += n;
      }
      sum.add(part);
    }
    ASSERT_EQ(std::vector<std::uint64_t>(sum.begin(), sum.end()), dense) << "trial " << trial;
  }
}

TEST(BucketCountsTest, CopiesAreIndependent) {
  std::mt19937_64 rng(2603);
  for (int trial = 0; trial < 100; ++trial) {
    const Binning b = random_binning(rng);
    Pair p = random_pair(rng, b);
    const Histogram copied = p.snap.histograms[0];
    Histogram assigned;
    assigned = p.snap.histograms[0];
    const Dense before = p.dense;
    for (std::size_t k = 0; k < 4; ++k) observe(p, random_sample(rng, b));
    const std::string where = "trial " + std::to_string(trial);
    expect_same(copied, before, where + " copy");
    expect_same(assigned, before, where + " assignment");
    expect_same(p.snap.histograms[0], p.dense, where + " original");
  }
}

}  // namespace
}  // namespace rthv::obs
