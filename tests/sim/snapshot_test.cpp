// Differential snapshot/restore tests for the simulator core.
//
// The contract under test (Simulator::snapshot/restore, backed by
// EventQueue::Snapshot): a snapshot taken at any instant, restored onto the
// SAME simulator object, replays the remaining schedule bit-identically --
// same firing times, same FIFO order among equal times, same IDs honoured
// by cancel(). The randomized differential mixes near (microseconds), mid
// (milliseconds to minutes) and far-future (beyond 2^49 ns) events, and a
// second test straddles the 2^49 ns mark.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"

namespace rthv::sim {
namespace {

// One observed callback firing: virtual time plus the event's identity
// marker. Bit-identical replay means bit-identical logs.
struct Fired {
  std::int64_t ns;
  std::uint64_t marker;
  bool operator==(const Fired&) const = default;
};

// ~6.5 days: the far-future event class starts here.
constexpr std::int64_t kFarFutureNs = std::int64_t{1} << 49;

/// Schedules a randomized event population over all time classes and
/// returns the ids. Every callback appends (now, marker) to `log`; every
/// fourth one also chains a follow-up event (exercises scheduling from
/// inside a restored callback clone).
std::vector<EventId> populate(Simulator& s, std::vector<Fired>& log,
                              Xoshiro256& rng, std::size_t count) {
  std::vector<EventId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t marker = rng.next();
    TimePoint t;
    switch (i % 4) {
      case 0:  // near
        t = TimePoint::at_us(
            static_cast<std::int64_t>(rng.uniform_int(1, 2'000)));
        break;
      case 1:  // mid: milliseconds to minutes
        t = TimePoint::at_us(
            static_cast<std::int64_t>(rng.uniform_int(2'000, 60'000'000)));
        break;
      case 2:  // far: beyond 2^49 ns
        t = TimePoint::at_ns(
            kFarFutureNs +
            static_cast<std::int64_t>(rng.uniform_int(0, std::uint64_t{1} << 48)));
        break;
      default: {  // near, and chains a follow-up when it fires
        t = TimePoint::at_us(
            static_cast<std::int64_t>(rng.uniform_int(1, 2'000)));
        const auto delay = Duration::us(
            static_cast<std::int64_t>(rng.uniform_int(1, 500)));
        ids.push_back(s.schedule_at(t, [&s, &log, marker, delay] {
          log.push_back({s.now().count_ns(), marker});
          s.schedule_after(delay, [&s, &log, marker] {
            log.push_back({s.now().count_ns(), ~marker});
          });
        }));
        continue;
      }
    }
    ids.push_back(s.schedule_at(
        t, [&s, &log, marker] { log.push_back({s.now().count_ns(), marker}); }));
  }
  return ids;
}

/// The core differential: populate, run partway, snapshot, finish recording
/// a reference log, then restore and finish twice more. All three suffix
/// logs must be bit-identical, and clocks/counters must round-trip.
void run_differential(std::uint64_t seed) {
  Simulator s;
  std::vector<Fired> log;
  Xoshiro256 rng(seed);
  auto ids = populate(s, log, rng, 120);

  // Cancel a random subset before the split so freelist state is non-trivial.
  for (const auto& id : ids) {
    if (rng.uniform_int(0, 9) == 0) s.cancel(id);
  }

  // Snapshot at a seed-dependent arbitrary instant mid-run.
  s.run_until(TimePoint::at_us(
      static_cast<std::int64_t>(rng.uniform_int(100, 5'000))));
  const auto snap = s.snapshot();
  const auto now_at_snap = s.now();
  const auto executed_at_snap = s.executed_events();
  const auto pending_at_snap = s.pending_events();

  log.clear();
  s.run();
  const std::vector<Fired> reference = log;
  const auto end_clock = s.now();
  const auto end_executed = s.executed_events();

  for (int round = 0; round < 2; ++round) {
    s.restore(snap);
    EXPECT_EQ(s.now(), now_at_snap);
    EXPECT_EQ(s.executed_events(), executed_at_snap);
    EXPECT_EQ(s.pending_events(), pending_at_snap);
    log.clear();
    s.run();
    EXPECT_EQ(log, reference) << "seed " << seed << " round " << round
                              << ": replay diverged from the first run";
    EXPECT_EQ(s.now(), end_clock);
    EXPECT_EQ(s.executed_events(), end_executed);
  }
}

TEST(SimulatorSnapshotTest, RandomizedDifferentialAcrossAllTiers) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) run_differential(seed);
}

TEST(SimulatorSnapshotTest, RoundTripAcrossTopLevelWindowBoundary) {
  // Events straddling the 2^49 ns mark must replay identically from a
  // snapshot taken well before it.
  Simulator s;
  std::vector<Fired> log;
  const std::int64_t boundary = kFarFutureNs;
  const std::array<std::int64_t, 6> times = {
      boundary - 10'000'000, boundary - 8'192,     boundary,
      boundary + 8'192,      boundary + 10'000'000, 2 * boundary + 12'345,
  };
  std::uint64_t marker = 0;
  for (const auto t : times) {
    ++marker;
    s.schedule_at(TimePoint::at_ns(t), [&s, &log, marker] {
      log.push_back({s.now().count_ns(), marker});
    });
  }

  // Snapshot while the clock is still far below the boundary.
  s.run_until(TimePoint::at_us(100));
  const auto snap = s.snapshot();

  log.clear();
  s.run();
  const std::vector<Fired> reference = log;
  ASSERT_EQ(reference.size(), times.size());

  s.restore(snap);
  log.clear();
  s.run();
  EXPECT_EQ(log, reference);
}

TEST(SimulatorSnapshotTest, CancelStaysValidAfterRestore) {
  // EventIds from before the snapshot keep working after a restore: the
  // node generations round-trip, so a cancel lands on the same event.
  Simulator s;
  bool fired = false;
  const auto id =
      s.schedule_at(TimePoint::at_us(10), [&fired] { fired = true; });
  const auto snap = s.snapshot();

  ASSERT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);

  s.restore(snap);
  s.run();
  EXPECT_TRUE(fired) << "restore must revive the cancelled event";

  fired = false;
  s.restore(snap);
  EXPECT_TRUE(s.cancel(id)) << "the id must target the restored event again";
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorSnapshotTest, HeapStoredCallbacksAreClonedNotAliased) {
  // A capture larger than the inline buffer forces heap storage; the
  // snapshot must deep-copy it so running the original does not corrupt
  // the saved copy.
  Simulator s;
  std::array<std::uint64_t, 16> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 7 + 1;
  std::vector<std::uint64_t> sums;
  s.schedule_at(TimePoint::at_us(5), [payload, &sums] {
    std::uint64_t sum = 0;
    for (const auto v : payload) sum += v;
    sums.push_back(sum);
  });

  const auto snap = s.snapshot();
  s.run();
  s.restore(snap);
  s.run();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(SimulatorSnapshotTest, NonCopyableCallbackMakesSnapshotThrow) {
  // Move-only callables schedule fine but cannot be checkpointed; the
  // failure must be a loud logic_error at snapshot time, not a silent
  // shallow copy.
  Simulator s;
  auto owned = std::make_unique<int>(42);
  s.schedule_at(TimePoint::at_us(1), [p = std::move(owned)] { (void)*p; });
  EXPECT_THROW((void)s.snapshot(), std::logic_error);
  s.run();  // still runnable: the queue itself is unharmed
  EXPECT_TRUE(s.idle());
}

TEST(SimulatorSnapshotTest, SnapshotOfRestoredStateIsEquivalent) {
  // snapshot -> restore -> snapshot must describe the same future:
  // replaying either snapshot yields the same log.
  Simulator s;
  std::vector<Fired> log;
  Xoshiro256 rng(99);
  populate(s, log, rng, 40);
  s.run_until(TimePoint::at_us(500));

  const auto first = s.snapshot();
  s.restore(first);
  const auto second = s.snapshot();

  s.restore(first);
  log.clear();
  s.run();
  const auto from_first = log;

  s.restore(second);
  log.clear();
  s.run();
  EXPECT_EQ(log, from_first);
}

}  // namespace
}  // namespace rthv::sim
