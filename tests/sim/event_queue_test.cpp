#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rthv::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint::at_us(3), [&] { order.push_back(3); });
  q.schedule(TimePoint::at_us(1), [&] { order.push_back(1); });
  q.schedule(TimePoint::at_us(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesPopFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimePoint::at_us(10), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NextTimeReportsEarliestLive) {
  EventQueue q;
  q.schedule(TimePoint::at_us(5), [] {});
  q.schedule(TimePoint::at_us(2), [] {});
  EXPECT_EQ(q.next_time(), TimePoint::at_us(2));
}

TEST(EventQueueTest, CancelRemovesEvent) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(TimePoint::at_us(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(TimePoint::at_us(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelAfterPopReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(TimePoint::at_us(1), [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueueTest, CancelledHeadSkippedByNextTime) {
  EventQueue q;
  const EventId early = q.schedule(TimePoint::at_us(1), [] {});
  q.schedule(TimePoint::at_us(9), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), TimePoint::at_us(9));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, PopReturnsTimeAndCallback) {
  EventQueue q;
  int hits = 0;
  q.schedule(TimePoint::at_us(4), [&] { ++hits; });
  auto popped = q.pop();
  EXPECT_EQ(popped.time, TimePoint::at_us(4));
  popped.callback();
  EXPECT_EQ(hits, 1);
}

// Satellite requirement: schedule-then-cancel of a million events with exact
// size() bookkeeping throughout, and eager reclamation -- cancelled slots are
// reused, so the slot table's high-water mark stays at the peak *live* count,
// not the total scheduled count.
TEST(EventQueueTest, MillionScheduleCancelExactBookkeeping) {
  constexpr std::size_t kTotal = 1'000'000;
  constexpr std::size_t kBatch = 1000;
  EventQueue q;
  std::vector<EventId> batch;
  batch.reserve(kBatch);
  std::int64_t t = 0;
  for (std::size_t round = 0; round < kTotal / kBatch; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(q.size(), i);
      batch.push_back(q.schedule(TimePoint::at_ns(++t), [] {}));
    }
    ASSERT_EQ(q.size(), kBatch);
    for (const EventId id : batch) ASSERT_TRUE(q.cancel(id));
    ASSERT_EQ(q.size(), 0u);
    ASSERT_TRUE(q.empty());
    batch.clear();
  }
  // One million events went through, but only kBatch were ever live at once:
  // eager reclamation must have capped the slot table at the live peak.
  EXPECT_LE(q.allocated_slots(), kBatch);
}

TEST(EventQueueTest, CancelledSlotIdsAreNotResurrectedByReuse) {
  EventQueue q;
  const EventId first = q.schedule(TimePoint::at_us(1), [] {});
  ASSERT_TRUE(q.cancel(first));
  // The reused slot gets a new generation; the stale id must stay dead.
  const EventId second = q.schedule(TimePoint::at_us(2), [] {});
  EXPECT_FALSE(q.cancel(first));
  EXPECT_TRUE(q.cancel(second));
  EXPECT_TRUE(q.empty());
}

// Equal-time events must pop in schedule order even when cancellations
// unlink entries in between (bit-reproducibility depends on this).
TEST(EventQueueTest, EqualTimeFifoSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 200; ++i) {
    const EventId id =
        q.schedule(TimePoint::at_us(500), [&order, i] { order.push_back(i); });
    if (i % 3 == 0) cancelled.push_back(id);
  }
  for (const EventId id : cancelled) ASSERT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().callback();
  int prev = -1;
  for (const int i : order) {
    EXPECT_NE(i % 3, 0);  // cancelled callbacks never run
    EXPECT_GT(i, prev);   // FIFO among the survivors
    prev = i;
  }
  EXPECT_EQ(order.size(), 200u - cancelled.size());
}

// A million events over four delta classes (microseconds to a week out)
// with interleaved pops and cancels must keep the slot table bounded by the
// live peak -- reclamation has to work identically whether a slot dies at
// the head, the tail or in the interior of the list.
TEST(EventQueueTest, MillionEventReclamationAcrossHorizons) {
  constexpr std::size_t kRounds = 500;
  constexpr std::size_t kBatch = 2000;
  // Deltas per index class: 1 us, 10 ms, ~17 min, ~7 days.
  constexpr std::int64_t kDeltas[4] = {1'000, 10'000'000, 1'000'000'000'000,
                                       600'000'000'000'000};
  EventQueue q;
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  std::int64_t now = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::int64_t t = now + kDeltas[i % 4] + static_cast<std::int64_t>(i);
      ids.push_back(q.schedule(TimePoint::at_ns(t), [] {}));
    }
    ASSERT_EQ(q.size(), kBatch);
    // Cancel one class in place (a quarter of the batch dies unreaped) and
    // pop the rest in order.
    for (std::size_t i = 1; i < ids.size(); i += 4) ASSERT_TRUE(q.cancel(ids[i]));
    TimePoint last = TimePoint::at_ns(now);
    for (std::size_t i = 0; i < kBatch - kBatch / 4; ++i) {
      auto p = q.pop();
      ASSERT_GE(p.time, last);
      last = p.time;
    }
    ASSERT_TRUE(q.empty());
    now = last.count_ns();
    ids.clear();
  }
  EXPECT_LE(q.allocated_slots(), kBatch);
}

// Cancelling far-future events behind a block of near ones must reclaim
// eagerly and keep the list links intact.
TEST(EventQueueTest, FarHeapCancelReclaimsEagerly) {
  EventQueue q;
  std::vector<EventId> near;
  for (int i = 0; i < 40; ++i) {
    near.push_back(q.schedule(TimePoint::at_us(10 + i), [] {}));
  }
  std::vector<EventId> far;
  for (int i = 0; i < 100; ++i) {
    // Weeks out, each spaced ~11 days apart.
    far.push_back(q.schedule(
        TimePoint::at_ns(600'000'000'000'000 +
                         static_cast<std::int64_t>(i) * 1'000'000'000'000'000),
        [] {}));
  }
  EXPECT_EQ(q.size(), 140u);
  for (std::size_t i = 0; i < far.size(); i += 2) ASSERT_TRUE(q.cancel(far[i]));
  EXPECT_EQ(q.size(), 90u);
  // Drain everything; order must stay nondecreasing across the near/far gap.
  TimePoint last = TimePoint::origin();
  std::size_t drained = 0;
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GE(p.time, last);
    last = p.time;
    ++drained;
  }
  EXPECT_EQ(drained, 40u + 50u);
}

// reserve() pre-sizes capacity only: the slot table's high-water mark still
// tracks the live peak, and a burst up to the reservation fits in it.
TEST(EventQueueTest, ReservePreSizesSlotArena) {
  EventQueue q;
  q.reserve(4096);
  EXPECT_EQ(q.allocated_slots(), 0u);
  std::vector<EventId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(q.schedule(TimePoint::at_us(i), [] {}));
  }
  EXPECT_EQ(q.size(), 4096u);
  while (!q.empty()) q.pop();
  EXPECT_LE(q.allocated_slots(), 4096u);
}

// One distant timer and a block of mid-range events, then a dense burst of
// earlier events in scrambled order: every burst insert lands in the
// interior of a long list, and order must still come out exactly
// (time, seq).
TEST(EventQueueTest, BurstBelowSparseFrontierStaysOrdered) {
  EventQueue q;
  const TimePoint distant = TimePoint::at_ns(3'600'000'000'000);  // one hour
  q.schedule(distant, [] {});
  std::vector<EventId> more;
  for (int i = 0; i < 40; ++i) {
    more.push_back(q.schedule(TimePoint::at_us(500'000 + i), [] {}));
  }
  // Dense burst far below the mid-range block.
  for (int i = 0; i < 5000; ++i) {
    q.schedule(TimePoint::at_us(100 + (i * 37) % 4096), [] {});
  }
  EXPECT_EQ(q.size(), 1u + 40u + 5000u);
  TimePoint last = TimePoint::origin();
  std::size_t n = 0;
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GE(p.time, last);
    last = p.time;
    ++n;
  }
  EXPECT_EQ(n, 5041u);
  EXPECT_EQ(last, distant);
}

// Pop order across the 2^49 ns mark (a former timer-wheel window boundary
// where far-future events once had to be refilled): B, scheduled before the
// crossing, must still beat C, scheduled after it at a later time.
TEST(EventQueueTest, FarRefillWhenOpenedBucketCrossesTopWindow) {
  constexpr std::int64_t kGranuleNs = 8192;
  constexpr std::int64_t kWindowTicks = std::int64_t{1} << 36;
  EventQueue q;
  for (int i = 0; i < 40; ++i) q.schedule(TimePoint::at_us(10 + i), [] {});
  // A sits just below the mark, B just past it.
  const TimePoint a = TimePoint::at_ns((kWindowTicks - 1) * kGranuleNs);
  const TimePoint b = TimePoint::at_ns((kWindowTicks + 1) * kGranuleNs);
  q.schedule(a, [] {});
  q.schedule(b, [] {});
  // Drain the near events and A.
  TimePoint last = TimePoint::origin();
  for (int i = 0; i < 41; ++i) {
    auto p = q.pop();
    ASSERT_GE(p.time, last);
    last = p.time;
  }
  ASSERT_EQ(last, a);
  // C arrives after the crossing, later than B.
  const TimePoint c = TimePoint::at_ns((kWindowTicks + 100) * kGranuleNs);
  q.schedule(c, [] {});
  EXPECT_EQ(q.pop().time, b);
  EXPECT_EQ(q.pop().time, c);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ManyInterleavedSchedulesAndCancels) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(TimePoint::at_us(100 - i), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  EXPECT_EQ(q.size(), 50u);
  TimePoint last = TimePoint::origin();
  while (!q.empty()) {
    auto p = q.pop();
    EXPECT_GE(p.time, last);
    last = p.time;
  }
}

}  // namespace
}  // namespace rthv::sim
