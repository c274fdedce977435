// Bit-identity guard for workload synthesis.
//
// Every figure, example and benchmark digest replays traces built by these
// generators, so a change to how they compute (stream merging, the
// serialization pass, the inline sampler) must reproduce the committed
// output bit for bit. Each case hashes the generated distance (or time)
// vector with 64-bit FNV-1a. A hash may change only together with a
// deliberate change of the traces, which also changes the figures and the
// e2ebench reference digests.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/seed.hpp"
#include "workload/ecu_trace.hpp"
#include "workload/generators.hpp"

namespace rthv::workload {
namespace {

using sim::Duration;
using sim::TimePoint;

std::uint64_t fnv1a(const std::vector<std::int64_t>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::int64_t v : values) {
    auto u = static_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= u & 0xffU;
      h *= 0x100000001b3ULL;
      u >>= 8;
    }
  }
  return h;
}

std::vector<std::int64_t> ns_of(const Trace& t) {
  std::vector<std::int64_t> out;
  out.reserve(t.size());
  for (const auto d : t.distances()) out.push_back(d.count_ns());
  return out;
}

std::vector<std::int64_t> ns_of(const std::vector<TimePoint>& times) {
  std::vector<std::int64_t> out;
  out.reserve(times.size());
  for (const auto t : times) out.push_back((t - TimePoint::origin()).count_ns());
  return out;
}

Trace ecu(const std::function<void(EcuTraceConfig&)>& tweak) {
  EcuTraceConfig cfg;
  tweak(cfg);
  return EcuTraceSynthesizer(cfg).synthesize();
}

struct GoldenCase {
  std::string name;
  std::function<std::vector<std::int64_t>()> generate;
  std::size_t size;
  std::uint64_t hash;
};

std::vector<GoldenCase> golden_cases() {
  return {
      {"ecu_fig7",
       [] { return ns_of(ecu([](EcuTraceConfig& c) { c.target_activations = 11000; })); },
       11000, 0x4dd930a1c291a572ULL},
      {"ecu_paper_suite",
       [] {
         return ns_of(ecu([](EcuTraceConfig& c) {
           c.target_activations = 100000;
           c.seed = exp::derive_seed(1, 9);
         }));
       },
       100000, 0x4d75486947e8b853ULL},
      {"ecu_no_min_separation",
       [] {
         return ns_of(ecu([](EcuTraceConfig& c) {
           c.target_activations = 5000;
           c.min_separation = Duration::zero();
         }));
       },
       5000, 0x5fd25cf8b795fba5ULL},
      {"ecu_no_dense_bursts",
       [] {
         return ns_of(ecu([](EcuTraceConfig& c) {
           c.target_activations = 5000;
           c.dense_burst_count = 0;
         }));
       },
       5000, 0xa860531efc87118dULL},
      {"ecu_crank_only",
       [] {
         return ns_of(ecu([](EcuTraceConfig& c) {
           c.target_activations = 500;
           c.seed = 77;
           c.with_periodic_tasks = false;
           c.with_bursts = false;
         }));
       },
       500, 0x5385fd1382e16ffbULL},
      {"exponential",
       [] { return ns_of(ExponentialTraceGenerator(Duration::us(1444), 2014).generate(20000)); },
       20000, 0x745fb7060a2ceec2ULL},
      {"exponential_floor",
       [] {
         return ns_of(ExponentialTraceGenerator(Duration::us(500), 11, Duration::us(300))
                          .generate(20000));
       },
       20000, 0x08999a0d3dc880caULL},
      {"periodic",
       [] {
         return ns_of(PeriodicTraceGenerator(Duration::ms(1), Duration::us(400),
                                             Duration::us(50), 9)
                          .generate_until(Duration::s(2)));
       },
       2000, 0xa261976dd78f72b5ULL},
      {"burst",
       [] {
         return ns_of(BurstTraceGenerator(Duration::ms(2), 6, Duration::us(700), 13)
                          .generate_until(Duration::s(2)));
       },
       3431, 0x3523650c13ec059aULL},
      {"merge_ties_and_unsorted",
       [] {
         const std::vector<TimePoint> a{TimePoint::at_us(10), TimePoint::at_us(20),
                                        TimePoint::at_us(20), TimePoint::at_us(40)};
         const std::vector<TimePoint> b{TimePoint::at_us(20), TimePoint::at_us(30),
                                        TimePoint::at_us(40)};
         const std::vector<TimePoint> unsorted{TimePoint::at_us(35), TimePoint::at_us(5),
                                               TimePoint::at_us(20), TimePoint::at_us(50)};
         return ns_of(merge_streams({a, {}, b, unsorted}));
       },
       11, 0xded81d28ae9cccb8ULL},
  };
}

TEST(GeneratorGoldenTest, OutputsMatchCommittedHashes) {
  for (const auto& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const auto values = c.generate();
    EXPECT_EQ(values.size(), c.size);
    EXPECT_EQ(fnv1a(values), c.hash)
        << std::hex << "actual hash 0x" << fnv1a(values) << std::dec << ", " << values.size()
        << " values";
  }
}

}  // namespace
}  // namespace rthv::workload
