#include "hv/irq_queue.hpp"

#include <gtest/gtest.h>

namespace rthv::hv {
namespace {

IrqEvent event(std::uint64_t seq) {
  IrqEvent e;
  e.source = 0;
  e.seq = seq;
  return e;
}

TEST(IrqQueueTest, StartsEmpty) {
  IrqQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
}

TEST(IrqQueueTest, FifoOrder) {
  IrqQueue q(4);
  q.push(event(1));
  q.push(event(2));
  q.push(event(3));
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.front().seq, 2u);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 3u);
}

TEST(IrqQueueTest, FullQueueDropsAndCounts) {
  IrqQueue q(2);
  EXPECT_TRUE(q.push(event(1)));
  EXPECT_TRUE(q.push(event(2)));
  EXPECT_FALSE(q.push(event(3)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.total_pushed(), 2u);
}

TEST(IrqQueueTest, StormPastCapacityKeepsOldestEvents) {
  // A storm of 64 pushes against a 4-slot queue: the queue keeps the first
  // four events (FIFO, no overwrite) and reports every other push as a drop.
  IrqQueue q(4);
  for (std::uint64_t seq = 1; seq <= 64; ++seq) q.push(event(seq));
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.drops(), 60u);
  EXPECT_EQ(q.total_pushed(), 4u);
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().seq, 2u);
}

TEST(IrqQueueTest, PopMakesRoom) {
  IrqQueue q(1);
  q.push(event(1));
  q.pop();
  EXPECT_TRUE(q.push(event(2)));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(IrqQueueTest, HighWatermarkTracksPeak) {
  IrqQueue q(8);
  q.push(event(1));
  q.push(event(2));
  q.push(event(3));
  q.pop();
  q.pop();
  q.push(event(4));
  EXPECT_EQ(q.high_watermark(), 3u);
}

TEST(IrqQueueTest, EventPayloadPreserved) {
  IrqQueue q(2);
  IrqEvent e;
  e.source = 7;
  e.seq = 42;
  e.raise_time = sim::TimePoint::at_us(100);
  e.th_start = sim::TimePoint::at_us(101);
  e.arrived_in_own_slot = true;
  e.admitted_interpose = true;
  q.push(e);
  const IrqEvent out = q.pop();
  EXPECT_EQ(out.source, 7u);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.raise_time, sim::TimePoint::at_us(100));
  EXPECT_EQ(out.th_start, sim::TimePoint::at_us(101));
  EXPECT_TRUE(out.arrived_in_own_slot);
  EXPECT_TRUE(out.admitted_interpose);
}

TEST(IrqQueueTest, SnapshotRoundTripRestoresRingAndCounters) {
  IrqQueue q(4);
  q.push(event(1));
  q.push(event(2));
  q.push(event(3));
  q.pop();
  for (std::uint64_t seq = 4; seq <= 8; ++seq) q.push(event(seq));  // 3 drops

  sim::StateWriter w;
  q.snapshot_state(w);
  const std::vector<std::uint64_t> words = w.take();

  // Mutate past the checkpoint, then restore and verify bit-exact state.
  q.pop();
  q.pop();
  q.push(event(99));
  sim::StateReader r(words);
  q.restore_state(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.drops(), 3u);
  EXPECT_EQ(q.total_pushed(), 5u);
  EXPECT_EQ(q.high_watermark(), 4u);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 4u);
  EXPECT_EQ(q.pop().seq, 5u);
}

TEST(IrqQueueTest, RestoreOntoDifferentCapacityThrows) {
  // The stream is self-describing: the serialized structural capacity must
  // match the restoring queue's in every build type, not just under assert.
  IrqQueue small(2);
  small.push(event(1));
  sim::StateWriter w;
  small.snapshot_state(w);
  const std::vector<std::uint64_t> words = w.take();

  IrqQueue big(8);
  sim::StateReader r(words);
  EXPECT_THROW(big.restore_state(r), std::logic_error);
}

}  // namespace
}  // namespace rthv::hv
