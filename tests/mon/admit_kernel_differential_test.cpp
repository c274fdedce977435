// Randomized differential tests for the admission kernels: the branch-free
// AND-reduction must produce bit-identical verdicts to the early-exit
// scalar reference on every input, and DeltaVectorMonitor must judge
// exactly like Algorithm 1 run over a plain timestamp window -- verdicts,
// admission counters, and observed-distance bookkeeping included.
//
// tests/run_sanitized.sh builds this suite under ASan+UBSan, so the kernel
// differential doubles as a bounds/overflow probe over random windows.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "mon/admit_kernel.hpp"
#include "mon/monitor.hpp"
#include "sim/random.hpp"

namespace rthv::mon {
namespace {

using sim::Duration;
using sim::TimePoint;

/// Algorithm 1 as the paper writes it, over a plain timestamp window (most
/// recent first): an activation conforms iff it keeps delta[i] to the i-th
/// most recent recorded activation, for every recorded one; every
/// activation, admitted or not, is then recorded and the window is trimmed
/// to the monitor depth.
class ReferenceMonitor {
 public:
  explicit ReferenceMonitor(const DeltaVector& deltas) : deltas_(deltas) {}

  bool record_and_check(TimePoint now) {
    bool admit = true;
    for (std::size_t i = 0; i < window_.size(); ++i) {
      if (now - window_[i] < deltas_[i]) admit = false;
    }
    if (!window_.empty()) last_distance_ = now - window_.front();
    window_.push_front(now);
    if (window_.size() > deltas_.size()) window_.pop_back();
    (admit ? admitted_ : denied_) += 1;
    return admit;
  }

  std::uint64_t admitted_ = 0;
  std::uint64_t denied_ = 0;
  std::optional<Duration> last_distance_;

 private:
  DeltaVector deltas_;
  std::deque<TimePoint> window_;
};

/// Random monotone non-decreasing delta vector of the given depth, with
/// distances in the hundreds-of-microseconds range the paper's Appendix A
/// tables use.
DeltaVector random_deltas(sim::Xoshiro256& rng, std::size_t depth) {
  DeltaVector deltas;
  std::int64_t d = 10'000 + static_cast<std::int64_t>(rng.uniform_int(0, 200'000));
  for (std::size_t k = 0; k < depth; ++k) {
    deltas.push_back(Duration::ns(d));
    d += static_cast<std::int64_t>(rng.uniform_int(0, 400'000));
  }
  return deltas;
}

/// Activation trace whose gaps hover around the consecutive-event distance
/// `d0`: roughly half the activations land just inside the forbidden zone
/// and half just outside (including exact-boundary gaps, which probe the
/// >= edge of the predicate), so verdicts flip constantly.
std::vector<TimePoint> near_saturation_trace(sim::Xoshiro256& rng, std::size_t n,
                                             std::int64_t d0_ns) {
  std::vector<TimePoint> out;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t roll = rng.uniform_int(0, 9);
    std::int64_t gap;
    if (roll == 0) {
      gap = d0_ns;  // exactly on the boundary: must be admitted
    } else if (roll <= 5) {
      gap = d0_ns + static_cast<std::int64_t>(rng.uniform_int(0, d0_ns > 0 ? static_cast<std::uint64_t>(d0_ns) : 1));
    } else {
      gap = 1 + static_cast<std::int64_t>(
                    rng.uniform_int(0, d0_ns > 1 ? static_cast<std::uint64_t>(d0_ns - 1) : 1));
    }
    t += gap;
    out.push_back(TimePoint::at_ns(t));
  }
  return out;
}

TEST(AdmitKernelDifferentialTest, VectorMatchesScalarOnRandomWindows) {
  sim::Xoshiro256 rng(0x5eed001);
  for (int trial = 0; trial < 20'000; ++trial) {
    // Depths 1-24 cover every shipped monitor depth (5) and well beyond.
    const std::size_t l = 1 + rng.uniform_int(0, 23);
    std::vector<std::int64_t> win(l);
    std::vector<std::int64_t> delta(l);
    std::int64_t now = static_cast<std::int64_t>(rng.uniform_int(0, 4'000'000'000));
    for (std::size_t i = 0; i < l; ++i) {
      win[i] = now - static_cast<std::int64_t>(rng.uniform_int(0, 2'000'000));
      delta[i] = static_cast<std::int64_t>(rng.uniform_int(0, 2'000'000));
    }
    const bool scalar = admit_full_scalar(win.data(), delta.data(), l, now);
    const bool vector = admit_full_vector(win.data(), delta.data(), l, now);
    EXPECT_EQ(scalar, vector) << "trial " << trial << " depth " << l;
  }
}

TEST(AdmitKernelDifferentialTest, MonitorVerdictsIdenticalAcrossKernels) {
  sim::Xoshiro256 rng(0x5eed002);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t depth = 1 + rng.uniform_int(0, 19);
    const DeltaVector deltas = random_deltas(rng, depth);
    const auto trace =
        near_saturation_trace(rng, 3000, deltas.front().count_ns());

    DeltaVectorMonitor monitor(deltas);
    ReferenceMonitor reference(deltas);
    for (const auto t : trace) {
      const bool got = monitor.record_and_check(t);
      const bool want = reference.record_and_check(t);
      ASSERT_EQ(got, want) << "trial " << trial << " at t=" << t.count_ns();
    }
    EXPECT_EQ(monitor.admitted(), reference.admitted_);
    EXPECT_EQ(monitor.denied(), reference.denied_);
    EXPECT_EQ(monitor.last_observed_distance(), reference.last_distance_);
  }
}

}  // namespace
}  // namespace rthv::mon
