// Randomized differential test: the sorted-list event queue
// (src/sim/event_queue.hpp) against the project's original indexed binary
// min-heap (tests/sim/reference_heap_queue.hpp). Identical operation
// streams must produce identical observable behavior at every step -- pop
// order, next_time(), cancel results, and size().
//
// Deltas are drawn from several magnitude classes -- behind the last pop,
// microseconds, milliseconds, hours, around the 2^49 ns mark, and weeks
// out -- so inserts land at the head, the tail and in the interior of the
// list, and walk in from either end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "reference_heap_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace rthv::sim {
namespace {

class WheelVsHeapTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WheelVsHeapTest, IdenticalBehaviorUnderRandomOps) {
  Xoshiro256 rng(GetParam());
  EventQueue queue;
  reference::EventQueue heap;
  struct LiveEntry {
    EventId queue_id;
    reference::EventId heap_id;
  };
  std::vector<LiveEntry> live;
  std::int64_t now = 0;  // last popped time: deltas are relative to this
  int queue_payload = -1;
  int heap_payload = -1;

  for (int step = 0; step < 6000; ++step) {
    const double op = rng.uniform01();
    if (op < 0.55 || queue.empty()) {
      // Schedule with a delta from one of the magnitude classes. The
      // occasional behind-the-clock insert is earlier than events already
      // popped around it.
      const double m = rng.uniform01();
      std::int64_t t;
      if (m < 0.10) {
        t = std::max<std::int64_t>(0, now - static_cast<std::int64_t>(
                                            rng.uniform_int(0, 20'000)));
      } else if (m < 0.50) {
        t = now + static_cast<std::int64_t>(rng.uniform_int(0, 20'000));
      } else if (m < 0.75) {
        t = now + static_cast<std::int64_t>(rng.uniform_int(0, 60'000'000));
      } else if (m < 0.88) {
        // Hours out.
        t = now + static_cast<std::int64_t>(rng.uniform_int(0, 20'000'000'000'000));
      } else if (m < 0.92) {
        // Straddle the next multiple of 2^49 ns (a window boundary of the
        // timer wheel this queue replaced); a random delta would almost
        // never land this close to it.
        const std::int64_t window_ns = std::int64_t{1} << 49;
        const std::int64_t boundary = (now / window_ns + 1) * window_ns;
        t = boundary - 8'192 + static_cast<std::int64_t>(rng.uniform_int(0, 16'000));
      } else {
        // Weeks out.
        t = now + static_cast<std::int64_t>(rng.uniform_int(0, 2'000'000'000'000'000));
      }
      const int payload = step;
      const EventId wid = queue.schedule(
          TimePoint::at_ns(t), [&queue_payload, payload] { queue_payload = payload; });
      const reference::EventId hid = heap.schedule(
          TimePoint::at_ns(t), [&heap_payload, payload] { heap_payload = payload; });
      live.push_back(LiveEntry{wid, hid});
    } else if (op < 0.75 && !live.empty()) {
      // Cancel a random remembered id (may already have popped: both sides
      // must then agree it is stale).
      const auto idx = rng.uniform_int(0, live.size() - 1);
      const LiveEntry e = live[idx];
      const bool queue_cancelled = queue.cancel(e.queue_id);
      const bool heap_cancelled = heap.cancel(e.heap_id);
      ASSERT_EQ(queue_cancelled, heap_cancelled);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      ASSERT_FALSE(heap.empty());
      ASSERT_EQ(queue.next_time(), heap.next_time());
      auto from_queue = queue.pop();
      auto from_heap = heap.pop();
      ASSERT_EQ(from_queue.time, from_heap.time);
      from_queue.callback();
      from_heap.callback();
      ASSERT_EQ(queue_payload, heap_payload);
      now = std::max(now, from_queue.time.count_ns());
    }
    ASSERT_EQ(queue.size(), heap.size());
    ASSERT_EQ(queue.empty(), heap.empty());
  }

  // Drain both completely and compare the full remaining order.
  while (!heap.empty()) {
    ASSERT_EQ(queue.next_time(), heap.next_time());
    auto from_queue = queue.pop();
    auto from_heap = heap.pop();
    ASSERT_EQ(from_queue.time, from_heap.time);
    from_queue.callback();
    from_heap.callback();
    ASSERT_EQ(queue_payload, heap_payload);
  }
  EXPECT_TRUE(queue.empty());
}

// Dense bursts over a few distinct times: equal-time events must pop FIFO
// by scheduling order on both sides.
TEST_P(WheelVsHeapTest, SameTickBurstsPreserveFifo) {
  Xoshiro256 rng(GetParam() + 1000);
  EventQueue queue;
  reference::EventQueue heap;
  int queue_payload = -1;
  int heap_payload = -1;
  std::int64_t now = 0;
  for (int round = 0; round < 60; ++round) {
    // A burst of events over very few distinct times.
    const std::int64_t base = now + static_cast<std::int64_t>(
                                        rng.uniform_int(0, 4'000'000));
    for (int i = 0; i < 40; ++i) {
      const std::int64_t t = base + static_cast<std::int64_t>(rng.uniform_int(0, 3)) * 8192;
      const int payload = round * 1000 + i;
      queue.schedule(TimePoint::at_ns(t),
                     [&queue_payload, payload] { queue_payload = payload; });
      heap.schedule(TimePoint::at_ns(t),
                    [&heap_payload, payload] { heap_payload = payload; });
    }
    const auto drains = rng.uniform_int(10, 40);
    for (std::uint64_t i = 0; i < drains && !heap.empty(); ++i) {
      auto from_queue = queue.pop();
      auto from_heap = heap.pop();
      ASSERT_EQ(from_queue.time, from_heap.time);
      from_queue.callback();
      from_heap.callback();
      ASSERT_EQ(queue_payload, heap_payload);
      now = std::max(now, from_queue.time.count_ns());
    }
    ASSERT_EQ(queue.size(), heap.size());
  }
  while (!heap.empty()) {
    auto from_queue = queue.pop();
    auto from_heap = heap.pop();
    ASSERT_EQ(from_queue.time, from_heap.time);
    from_queue.callback();
    from_heap.callback();
    ASSERT_EQ(queue_payload, heap_payload);
  }
}

// Window-boundary walk. The interactive test above never carries `now`
// across a multiple of 2^49 ns (a window boundary of the timer wheel this
// queue replaced): pops crawl through the ever-growing near population.
// This test drives the drain across four boundaries with near schedules
// interleaved mid-drain, comparing every step.
TEST_P(WheelVsHeapTest, WindowBoundaryWalkStaysIdentical) {
  Xoshiro256 rng(GetParam() + 2000);
  EventQueue queue;
  reference::EventQueue heap;
  constexpr std::int64_t kWindowNs = std::int64_t{1} << 49;
  std::int64_t now = 0;
  int queue_payload = -1;
  int heap_payload = -1;
  int payload = 0;
  const auto schedule_both = [&](std::int64_t t) {
    const int p = payload++;
    queue.schedule(TimePoint::at_ns(t), [&queue_payload, p] { queue_payload = p; });
    heap.schedule(TimePoint::at_ns(t), [&heap_payload, p] { heap_payload = p; });
  };
  for (int window = 1; window <= 4; ++window) {
    const std::int64_t boundary = window * kWindowNs;
    // Filler spread over the rest of the current window, then events hugging
    // both sides of the boundary.
    for (int i = 0; i < 30; ++i) {
      schedule_both(now + 1 +
                    static_cast<std::int64_t>(rng.uniform_int(
                        0, static_cast<std::uint64_t>(boundary - now - 20'000))));
    }
    for (int i = 0; i < 30; ++i) {
      schedule_both(boundary - 8'192 +
                    static_cast<std::int64_t>(rng.uniform_int(0, 16'000)));
    }
    while (!heap.empty()) {
      ASSERT_FALSE(queue.empty());
      ASSERT_EQ(queue.next_time(), heap.next_time());
      auto from_queue = queue.pop();
      auto from_heap = heap.pop();
      ASSERT_EQ(from_queue.time, from_heap.time);
      from_queue.callback();
      from_heap.callback();
      ASSERT_EQ(queue_payload, heap_payload);
      now = std::max(now, from_queue.time.count_ns());
      // Sub-critical interleave (0.4 expected inserts per pop, so the drain
      // terminates).
      if (rng.uniform01() < 0.4) {
        schedule_both(now + static_cast<std::int64_t>(rng.uniform_int(0, 20'000)));
      }
    }
    ASSERT_TRUE(queue.empty());
    now = std::max(now, boundary + 1);
  }
}

// Interior inserts into a pending set held near 100 events -- above the
// hunt storm's measured peak of 83. Insert times fall anywhere inside the
// pending span, a quarter of them exactly on the time of an earlier event
// (equal-time FIFO in the middle of the list), so the insert walks run from
// both ends; cancels and pops interleave, compared step by step.
TEST_P(WheelVsHeapTest, InteriorInsertsIntoLargePendingSet) {
  Xoshiro256 rng(GetParam() + 3000);
  EventQueue queue;
  reference::EventQueue heap;
  struct LiveEntry {
    EventId queue_id;
    reference::EventId heap_id;
    std::int64_t time;
  };
  std::vector<LiveEntry> live;
  constexpr std::int64_t kSpanNs = 10'000'000;
  std::int64_t now = 0;
  int queue_payload = -1;
  int heap_payload = -1;
  std::size_t peak = 0;
  for (int step = 0; step < 8000; ++step) {
    const std::size_t size = heap.size();
    const double op = rng.uniform01();
    if (size < 90 || (size <= 110 && op < 0.5)) {
      std::int64_t t = now + static_cast<std::int64_t>(rng.uniform_int(0, kSpanNs));
      if (!live.empty() && rng.uniform01() < 0.25) {
        t = std::max(now, live[rng.uniform_int(0, live.size() - 1)].time);
      }
      const int payload = step;
      const EventId qid = queue.schedule(
          TimePoint::at_ns(t), [&queue_payload, payload] { queue_payload = payload; });
      const reference::EventId hid = heap.schedule(
          TimePoint::at_ns(t), [&heap_payload, payload] { heap_payload = payload; });
      live.push_back(LiveEntry{qid, hid, t});
    } else if (op < 0.65) {
      const auto idx = rng.uniform_int(0, live.size() - 1);
      const LiveEntry e = live[idx];
      ASSERT_EQ(queue.cancel(e.queue_id), heap.cancel(e.heap_id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      ASSERT_EQ(queue.next_time(), heap.next_time());
      auto from_queue = queue.pop();
      auto from_heap = heap.pop();
      ASSERT_EQ(from_queue.time, from_heap.time);
      from_queue.callback();
      from_heap.callback();
      ASSERT_EQ(queue_payload, heap_payload);
      now = from_queue.time.count_ns();
    }
    ASSERT_EQ(queue.size(), heap.size());
    peak = std::max(peak, heap.size());
  }
  EXPECT_GE(peak, 100u);
  while (!heap.empty()) {
    auto from_queue = queue.pop();
    auto from_heap = heap.pop();
    ASSERT_EQ(from_queue.time, from_heap.time);
    from_queue.callback();
    from_heap.callback();
    ASSERT_EQ(queue_payload, heap_payload);
  }
  EXPECT_TRUE(queue.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelVsHeapTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace rthv::sim
