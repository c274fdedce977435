// Differential snapshot/restore tests for the simulator core.
//
// The contract under test (Simulator::snapshot_state/restore_state, which
// write the event queue's node table, list ends, freelist, size, clock and
// executed count into one word stream): words taken at any instant,
// restored onto the SAME simulator object, replay the remaining schedule
// bit-identically -- same firing times, same FIFO order among equal times,
// same IDs honoured by cancel(). The randomized differential mixes near
// (microseconds), mid (milliseconds to minutes) and far-future (beyond
// 2^49 ns) events, and a second test straddles the 2^49 ns mark. Which
// callables can be queued at all is checked at compile time.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/random.hpp"
#include "sim/state_io.hpp"

namespace rthv::sim {
namespace {

// Only trivially copyable closures that fit the inline buffer can be
// scheduled, so a checkpoint never meets a callable it cannot copy as
// words. Anything else fails to compile at the schedule call.
template <typename F>
concept Schedulable = requires(sim::Simulator& s, const F& f) {
  s.schedule_at(TimePoint::origin(), f);
};
using PointerCapture = decltype([p = static_cast<int*>(nullptr)] { (void)p; });
using FullBuffer =
    decltype([a = std::array<std::uint64_t, kCallbackBytes / 8>{}] { (void)a; });
using Oversized =
    decltype([a = std::array<std::uint64_t, kCallbackBytes / 8 + 1>{}] { (void)a; });
using MoveOnly = decltype([p = std::unique_ptr<int>{}] { (void)p; });
static_assert(Schedulable<PointerCapture>);
static_assert(Schedulable<FullBuffer>);
static_assert(!Schedulable<Oversized>, "captures larger than the buffer must not compile");
static_assert(!Schedulable<MoveOnly>, "move-only callables must not compile");
static_assert(!Schedulable<std::function<void()>>);

/// The simulator under test, plus value-style snapshot()/restore() over its
/// word-stream checkpoint. restore() also checks that every word is read.
class Simulator : public sim::Simulator {
 public:
  [[nodiscard]] std::vector<std::uint64_t> snapshot() const {
    StateWriter w;
    snapshot_state(w);
    return w.take();
  }

  void restore(const std::vector<std::uint64_t>& words) {
    StateReader r(words);
    restore_state(r);
    EXPECT_TRUE(r.exhausted()) << "restore_state left words unread";
  }
};

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
/// inside a restored callback).
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
