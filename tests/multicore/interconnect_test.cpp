// Unit tests for the shared-interconnect interference model: epoch-bucketed
// demand visibility, cache-coloring disjointness, MemGuard-style bandwidth
// regulation, the charge formula, checkpoint/restore, and a randomized
// comparison with a per-color reference model.
#include "hw/multicore/interconnect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/state_io.hpp"
#include "sim/time.hpp"

namespace rthv::hw {
namespace {

using sim::Duration;
using sim::TimePoint;

InterconnectConfig two_core_config() {
  InterconnectConfig cfg;
  cfg.num_cores = 2;
  cfg.num_colors = 16;
  cfg.epoch = Duration::us(100);
  cfg.base_access_ns = 0;
  cfg.conflict_access_ns = 4;
  cfg.half_load_accesses = 2000;
  return cfg;
}

TEST(SharedInterconnectTest, DemandBecomesPressureInTheNextEpochOnly) {
  SharedInterconnect icx(two_core_config());
  const std::uint32_t mask = icx.full_mask();

  icx.register_demand(1, mask, 2000, TimePoint::at_us(10));
  // Same epoch: the burst sees no pressure from demand registered "now".
  EXPECT_EQ(icx.contention_stall(0, mask, 100, TimePoint::at_us(50)),
            Duration::zero());

  // Next epoch: the 2000 accesses are pressure. With P == half_load the
  // conflict term is exactly half its maximum: 4 ns * 100 * 1/2 = 200 ns.
  EXPECT_EQ(icx.contention_stall(0, mask, 100, TimePoint::at_us(150)),
            Duration::ns(200));

  // Two idle epochs later the previous epoch carried no demand.
  EXPECT_EQ(icx.contention_stall(0, mask, 100, TimePoint::at_us(450)),
            Duration::zero());
}

TEST(SharedInterconnectTest, OwnDemandIsNotPressure) {
  SharedInterconnect icx(two_core_config());
  icx.register_demand(0, icx.full_mask(), 100000, TimePoint::at_us(10));
  icx.register_demand(0, 0, 0, TimePoint::at_us(150));  // roll only
  EXPECT_EQ(icx.pressure(0, icx.full_mask()), 0u);
  EXPECT_EQ(icx.contention_stall(0, icx.full_mask(), 100, TimePoint::at_us(150)),
            Duration::zero());
  EXPECT_GT(icx.pressure(1, icx.full_mask()), 0u);
}

TEST(SharedInterconnectTest, DisjointColorMasksSeeNoPressure) {
  SharedInterconnect icx(two_core_config());
  icx.register_demand(1, 0x00FFu, 16000, TimePoint::at_us(10));
  icx.register_demand(1, 0, 0, TimePoint::at_us(150));  // roll only

  EXPECT_EQ(icx.pressure(0, 0xFF00u), 0u);      // disjoint: colored away
  EXPECT_EQ(icx.pressure(0, 0x00FFu), 16000u);  // overlapping: full demand
  EXPECT_EQ(icx.contention_stall(0, 0xFF00u, 100, TimePoint::at_us(160)),
            Duration::zero());
  EXPECT_GT(icx.contention_stall(0, 0x00FFu, 100, TimePoint::at_us(170)),
            Duration::zero());
}

TEST(SharedInterconnectTest, ZeroMaskMeansUncolored) {
  SharedInterconnect icx(two_core_config());
  icx.register_demand(1, 0, 1600, TimePoint::at_us(10));
  icx.register_demand(1, 0, 0, TimePoint::at_us(150));  // roll only
  // Mask 0 normalizes to all colors: the demand spreads over all 16 and is
  // fully visible to any overlapping mask.
  EXPECT_EQ(icx.pressure(0, icx.full_mask()), 1600u);
  EXPECT_EQ(icx.pressure(0, 0x0001u), 100u);  // one color's share
}

TEST(SharedInterconnectTest, BandwidthRegulationClampsPerWindow) {
  InterconnectConfig cfg = two_core_config();
  cfg.budgets = {CoreBandwidthBudget{0, Duration::us(100)},   // core 0 free
                 CoreBandwidthBudget{500, Duration::us(100)}};  // core 1 capped
  SharedInterconnect icx(cfg);

  // 2000 demanded, 500 granted: the hog is throttled at the regulator and
  // only the granted accesses ever become pressure.
  icx.register_demand(1, icx.full_mask(), 2000, TimePoint::at_us(10));
  EXPECT_EQ(icx.counters().accesses_registered, 500u);
  EXPECT_EQ(icx.counters().accesses_throttled, 1500u);
  icx.register_demand(1, icx.full_mask(), 100, TimePoint::at_us(20));
  EXPECT_EQ(icx.counters().accesses_throttled, 1600u);  // window exhausted

  // The replenishment window resets the budget.
  icx.register_demand(1, icx.full_mask(), 300, TimePoint::at_us(110));
  EXPECT_EQ(icx.counters().accesses_registered, 800u);

  icx.register_demand(1, icx.full_mask(), 0, TimePoint::at_us(210));  // roll
  EXPECT_EQ(icx.pressure(0, icx.full_mask()), 300u);
}

TEST(SharedInterconnectTest, ChargeIsMonotoneInPressureAndSaturating) {
  SharedInterconnect icx(two_core_config());
  Duration prev = Duration::zero();
  // Pressure doubling every epoch: the charge grows but never exceeds the
  // conflict ceiling 4 ns * accesses.
  std::uint64_t demand = 500;
  for (int e = 0; e < 12; ++e) {
    const TimePoint t = TimePoint::at_us(100 * e + 10);
    icx.register_demand(1, icx.full_mask(), demand, t);
    const Duration stall =
        icx.contention_stall(0, icx.full_mask(), 1000, t + Duration::us(100));
    EXPECT_GE(stall, prev);
    EXPECT_LE(stall, Duration::ns(4 * 1000));
    prev = stall;
    demand *= 2;
  }
  EXPECT_GT(prev, Duration::ns(3 * 1000));  // deep saturation approaches max
}

TEST(SharedInterconnectTest, RouteDelayIncludesLatencyAndChargesSender) {
  InterconnectConfig cfg = two_core_config();
  cfg.route_latency = Duration::us(1);
  cfg.route_accesses = 8;
  SharedInterconnect icx(cfg);

  EXPECT_EQ(icx.route_delay(0, 1, TimePoint::at_us(10)), Duration::us(1));
  EXPECT_EQ(icx.counters().routes, 1u);
  // The message's burst was registered on the sending core.
  icx.register_demand(0, 0, 0, TimePoint::at_us(150));  // roll only
  EXPECT_EQ(icx.pressure(1, icx.full_mask()), 8u);

  // Under pressure the route pays contention on top of the fixed latency.
  icx.register_demand(1, icx.full_mask(), 200000, TimePoint::at_us(160));
  EXPECT_GT(icx.route_delay(0, 1, TimePoint::at_us(250)), Duration::us(1));
}

TEST(SharedInterconnectTest, SnapshotRestoreRoundTrips) {
  InterconnectConfig cfg = two_core_config();
  cfg.budgets = {CoreBandwidthBudget{}, CoreBandwidthBudget{5000, Duration::us(100)}};
  SharedInterconnect icx(cfg);
  icx.register_demand(0, 0x000Fu, 700, TimePoint::at_us(10));
  icx.register_demand(1, 0x00F0u, 900, TimePoint::at_us(20));
  (void)icx.route_delay(1, 0, TimePoint::at_us(30));

  sim::StateWriter w;
  icx.snapshot_state(w);
  const auto words = w.take();

  // Mutate, then restore: accounting must return to the snapshot exactly.
  icx.register_demand(1, 0, 5000, TimePoint::at_us(340));
  (void)icx.contention_stall(0, 0, 100, TimePoint::at_us(350));

  sim::StateReader r(words);
  icx.restore_state(r);
  EXPECT_EQ(icx.counters().routes, 1u);
  EXPECT_EQ(icx.counters().accesses_registered, 700u + 900u + 8u);
  icx.register_demand(0, 0, 0, TimePoint::at_us(110));  // roll to epoch 1
  EXPECT_EQ(icx.pressure(1, 0x000Fu), 700u);
}

TEST(SharedInterconnectTest, ConstructorValidates) {
  InterconnectConfig cfg = two_core_config();
  cfg.num_cores = 0;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.num_colors = 0;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg.num_colors = 33;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.epoch = Duration::zero();
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.half_load_accesses = 0;
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg = two_core_config();
  cfg.budgets = {CoreBandwidthBudget{100, Duration::zero()}};
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
}

TEST(SharedInterconnectTest, RejectsBudgetsForCoresThatDoNotExist) {
  // A budget for core 2 of a two-core interconnect would be silently
  // ignored; at most num_cores entries are accepted.
  InterconnectConfig cfg = two_core_config();
  cfg.budgets.assign(3, CoreBandwidthBudget{});
  EXPECT_THROW(SharedInterconnect{cfg}, std::invalid_argument);
  cfg.budgets.assign(2, CoreBandwidthBudget{500, Duration::us(100)});
  EXPECT_NO_THROW(SharedInterconnect{cfg});
}

// --- reference model ---------------------------------------------------------

/// The interconnect as first written: per-color loops over every configured
/// color and both demand tables cleared eagerly at every epoch roll. The
/// randomized test below holds SharedInterconnect to it call for call.
class ReferenceInterconnect {
 public:
  explicit ReferenceInterconnect(const InterconnectConfig& cfg)
      : cfg_(cfg),
        full_(cfg.num_colors == 32 ? 0xFFFF'FFFFu
                                   : (std::uint32_t{1} << cfg.num_colors) - 1u),
        prev_(std::size_t{cfg.num_cores} * cfg.num_colors, 0),
        cur_(prev_.size(), 0),
        window_(cfg.num_cores, 0),
        used_(cfg.num_cores, 0) {}

  std::uint64_t pressure(std::uint32_t core, std::uint32_t mask) const {
    const std::uint32_t m = normalize(mask);
    std::uint64_t p = 0;
    for (std::uint32_t c = 0; c < cfg_.num_cores; ++c) {
      if (c == core) continue;
      for (std::uint32_t color = 0; color < cfg_.num_colors; ++color) {
        if ((m >> color) & 1u) p += prev_[std::size_t{c} * cfg_.num_colors + color];
      }
    }
    return p;
  }

  Duration contention_stall(std::uint32_t core, std::uint32_t mask,
                            std::uint64_t accesses, TimePoint now) {
    roll(now);
    if (accesses == 0) return Duration::zero();
    ++k_.bursts_charged;
    // The charge in its plain form; the stream's demand keeps c * p far
    // below the range where the library saturates instead.
    const std::uint64_t p = pressure(core, mask);
    const std::uint64_t c = std::uint64_t{cfg_.conflict_access_ns} * accesses;
    const std::uint64_t stall = std::uint64_t{cfg_.base_access_ns} * accesses +
                                (p == 0 ? 0 : c * p / (p + cfg_.half_load_accesses));
    k_.stall_ns_total += stall;
    return Duration::ns(static_cast<std::int64_t>(stall));
  }

  void register_demand(std::uint32_t core, std::uint32_t mask, std::uint64_t accesses,
                       TimePoint now) {
    roll(now);
    if (accesses == 0) return;
    std::uint64_t granted = accesses;
    if (core < cfg_.budgets.size() && cfg_.budgets[core].budget_accesses != 0) {
      const CoreBandwidthBudget& b = cfg_.budgets[core];
      const std::uint64_t w = static_cast<std::uint64_t>(now.count_ns()) /
                              static_cast<std::uint64_t>(b.replenish_period.count_ns());
      if (w != window_[core]) {
        window_[core] = w;
        used_[core] = 0;
      }
      granted = std::min(accesses, b.budget_accesses - std::min(b.budget_accesses, used_[core]));
      used_[core] += granted;
      k_.accesses_throttled += accesses - granted;
    }
    if (granted == 0) return;
    k_.accesses_registered += granted;
    const std::uint32_t m = normalize(mask);
    const std::uint32_t set = static_cast<std::uint32_t>(__builtin_popcount(m));
    std::uint64_t rem = granted % set;
    for (std::uint32_t color = 0; color < cfg_.num_colors; ++color) {
      if (!((m >> color) & 1u)) continue;
      cur_[std::size_t{core} * cfg_.num_colors + color] += granted / set + (rem > 0 ? 1 : 0);
      if (rem > 0) --rem;
    }
  }

  Duration route_delay(std::uint32_t from_core, TimePoint now) {
    ++k_.routes;
    const Duration stall = contention_stall(from_core, full_, cfg_.route_accesses, now);
    register_demand(from_core, full_, cfg_.route_accesses, now);
    return cfg_.route_latency + stall;
  }

  const SharedInterconnect::Counters& counters() const { return k_; }

 private:
  std::uint32_t normalize(std::uint32_t mask) const {
    return (mask & full_) == 0 ? full_ : mask & full_;
  }
  void roll(TimePoint now) {
    const std::uint64_t k = static_cast<std::uint64_t>(now.count_ns()) /
                            static_cast<std::uint64_t>(cfg_.epoch.count_ns());
    if (k == epoch_) return;
    if (k == epoch_ + 1) {
      prev_ = cur_;
    } else {
      std::fill(prev_.begin(), prev_.end(), 0);
    }
    std::fill(cur_.begin(), cur_.end(), 0);
    epoch_ = k;
    ++k_.epochs_rolled;
  }

  InterconnectConfig cfg_;
  std::uint32_t full_;
  std::vector<std::uint64_t> prev_;
  std::vector<std::uint64_t> cur_;
  std::vector<std::uint64_t> window_;
  std::vector<std::uint64_t> used_;
  std::uint64_t epoch_ = 0;
  SharedInterconnect::Counters k_;
};

void expect_same_counters(const SharedInterconnect::Counters& got,
                          const SharedInterconnect::Counters& want) {
  EXPECT_EQ(got.stall_ns_total, want.stall_ns_total);
  EXPECT_EQ(got.bursts_charged, want.bursts_charged);
  EXPECT_EQ(got.accesses_registered, want.accesses_registered);
  EXPECT_EQ(got.accesses_throttled, want.accesses_throttled);
  EXPECT_EQ(got.routes, want.routes);
  EXPECT_EQ(got.epochs_rolled, want.epochs_rolled);
}

/// Seeded random call stream over one interconnect configuration.
class CallStream {
 public:
  CallStream(const InterconnectConfig& cfg, std::uint64_t seed) : cfg_(cfg), rng_(seed) {}

  /// A mask that is 0, all-ones, a subset of the configured colors, or one
  /// with bits beyond them (alone or next to configured ones).
  std::uint32_t mask() {
    const std::uint32_t configured =
        cfg_.num_colors == 32 ? 0xFFFF'FFFFu : (std::uint32_t{1} << cfg_.num_colors) - 1u;
    const auto bits = static_cast<std::uint32_t>(rng_());
    switch (pick(5)) {
      case 0: return 0;
      case 1: return 0xFFFF'FFFFu;
      case 2: return bits & configured;
      case 3: return bits | ~configured;
      default: return configured == 0xFFFF'FFFFu ? bits : bits & ~configured;
    }
  }
  std::uint32_t core() { return pick(cfg_.num_cores); }
  std::uint64_t accesses() { return pick(6) == 0 ? 0 : 1 + pick(6000); }

  /// The next call instant: the same instant, a later one in the same epoch,
  /// the next epoch, or a gap of several idle epochs.
  TimePoint advance() {
    const auto epoch = static_cast<std::uint64_t>(cfg_.epoch.count_ns());
    std::uint64_t gap = 0;
    switch (pick(6)) {
      case 0: break;
      case 1: case 2: gap = pick(epoch / 4); break;
      case 3: case 4: gap = epoch + pick(epoch); break;
      default: gap = epoch * (2 + pick(5)); break;
    }
    now_ += Duration::ns(static_cast<std::int64_t>(gap));
    return now_;
  }

  std::uint32_t pick(std::uint64_t n) { return static_cast<std::uint32_t>(rng_() % n); }

 private:
  InterconnectConfig cfg_;
  std::mt19937_64 rng_;
  TimePoint now_ = TimePoint::origin();
};

/// Issues `count` random calls to both models and compares every result,
/// every counter and, after each call, the pressure each core would see.
void drive(SharedInterconnect& icx, ReferenceInterconnect& ref, CallStream& calls, int count) {
  for (int i = 0; i < count; ++i) {
    const TimePoint t = calls.advance();
    const std::uint32_t core = calls.core();
    const std::uint32_t mask = calls.mask();
    const std::uint64_t accesses = calls.accesses();
    switch (calls.pick(4)) {
      case 0:
        ASSERT_EQ(icx.contention_stall(core, mask, accesses, t),
                  ref.contention_stall(core, mask, accesses, t)) << "call " << i;
        break;
      case 1:
        icx.register_demand(core, mask, accesses, t);
        ref.register_demand(core, mask, accesses, t);
        break;
      case 2: {
        const Duration want = ref.contention_stall(core, mask, accesses, t);
        ref.register_demand(core, mask, accesses, t);
        ASSERT_EQ(icx.charge_and_register(core, mask, accesses, t), want) << "call " << i;
        break;
      }
      default: {
        const std::uint32_t to = calls.core();
        ASSERT_EQ(icx.route_delay(core, to, t), ref.route_delay(core, t)) << "call " << i;
        break;
      }
    }
    expect_same_counters(icx.counters(), ref.counters());
    const std::uint32_t probe = calls.mask();
    for (std::uint32_t c = 0; c < icx.num_cores(); ++c) {
      ASSERT_EQ(icx.pressure(c, probe), ref.pressure(c, probe))
          << "call " << i << " core " << c << " mask " << probe;
    }
  }
}

TEST(SharedInterconnectTest, MatchesPerColorReferenceModel) {
  for (const std::uint32_t colors : {1u, 7u, 16u, 32u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("colors " + std::to_string(colors) + " seed " + std::to_string(seed));
      InterconnectConfig cfg = two_core_config();
      cfg.num_cores = 3;
      cfg.num_colors = colors;
      cfg.conflict_access_ns = 40;
      cfg.route_accesses = 64;
      // Core 0 is explicitly unregulated, core 1 regulated, and core 2 has
      // no budget entry at all.
      cfg.budgets = {CoreBandwidthBudget{0, Duration::us(100)},
                     CoreBandwidthBudget{900, Duration::us(70)}};
      SharedInterconnect icx(cfg);
      ReferenceInterconnect ref(cfg);
      CallStream calls(cfg, seed);
      drive(icx, ref, calls, 400);

      // Snapshot mid-stream, run on, then restore into both this object and
      // a fresh one: the restored tables must carry their demand into the
      // next charges, whatever the object's own bookkeeping said before.
      sim::StateWriter w;
      icx.snapshot_state(w);
      const auto words = w.take();
      const ReferenceInterconnect ref_at_snapshot = ref;
      const CallStream calls_at_snapshot = calls;
      drive(icx, ref, calls, 200);

      sim::StateReader again(words);
      icx.restore_state(again);
      ref = ref_at_snapshot;
      calls = calls_at_snapshot;
      drive(icx, ref, calls, 200);

      SharedInterconnect fresh(cfg);
      sim::StateReader r(words);
      fresh.restore_state(r);
      ref = ref_at_snapshot;
      calls = calls_at_snapshot;
      drive(fresh, ref, calls, 400);
    }
  }
}

}  // namespace
}  // namespace rthv::hw
