// The cross-shard purge mailboxes: SPSC ring semantics, deterministic
// drain order (ascending producer, FIFO within one), FIFO survival across
// a ring-full overflow episode, and a two-thread SPSC race for TSan.
#include "cache/purge_mailbox.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace speedkit::cache {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

PurgeNote Note(int edge, const std::string& key) {
  return PurgeNote{edge, At(0), key};
}

TEST(SpscPurgeRingTest, FifoWithinCapacity) {
  SpscPurgeRing ring(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.TryPush(Note(i, "k" + std::to_string(i))));
  }
  EXPECT_EQ(ring.SizeApprox(), 5u);
  PurgeNote out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out.edge, i);
    EXPECT_EQ(out.key, "k" + std::to_string(i));
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscPurgeRingTest, RejectsWhenFullAndRecovers) {
  SpscPurgeRing ring(4);  // capacity rounds to 4
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(Note(i, "k")));
  EXPECT_FALSE(ring.TryPush(Note(99, "overflow")));
  PurgeNote out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.edge, 0);
  EXPECT_TRUE(ring.TryPush(Note(4, "k")));  // slot freed
}

TEST(SpscPurgeRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscPurgeRing(3).capacity(), 4u);
  EXPECT_EQ(SpscPurgeRing(1000).capacity(), 1024u);
}

TEST(PurgeMailboxGridTest, DrainsAscendingProducerThenFifo) {
  PurgeMailboxGrid grid(3);
  // Producers post out of producer order; drain must still be
  // (producer 0 FIFO, then producer 1 FIFO, ...).
  grid.Post(2, 0, Note(0, "from2-a"));
  grid.Post(0, 0, Note(0, "from0-a"));
  grid.Post(2, 0, Note(0, "from2-b"));
  grid.Post(0, 0, Note(0, "from0-b"));
  std::vector<std::string> seen;
  size_t n = grid.Drain(0, [&](const PurgeNote& note) { seen.push_back(note.key); });
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(seen, (std::vector<std::string>{"from0-a", "from0-b", "from2-a",
                                            "from2-b"}));
}

TEST(PurgeMailboxGridTest, LanesAreIndependentPerConsumer) {
  PurgeMailboxGrid grid(2);
  grid.Post(0, 1, Note(1, "to1"));
  grid.Post(1, 0, Note(0, "to0"));
  EXPECT_EQ(grid.PendingApprox(0), 1u);
  EXPECT_EQ(grid.PendingApprox(1), 1u);
  std::vector<std::string> seen0;
  grid.Drain(0, [&](const PurgeNote& n) { seen0.push_back(n.key); });
  EXPECT_EQ(seen0, std::vector<std::string>{"to0"});
  EXPECT_EQ(grid.PendingApprox(0), 0u);
  EXPECT_EQ(grid.PendingApprox(1), 1u);  // undrained consumer keeps its mail
}

TEST(PurgeMailboxGridTest, OverflowPreservesPerProducerFifo) {
  // Ring capacity 4: posting 10 notes forces an overflow episode; the
  // diversion flag must keep every note in posting order across the
  // ring/overflow seam, and keep new posts diverted until a drain.
  PurgeMailboxGrid grid(2, /*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    grid.Post(0, 1, Note(1, "k" + std::to_string(i)));
  }
  EXPECT_EQ(grid.PendingApprox(1), 10u);
  std::vector<std::string> seen;
  size_t n = grid.Drain(1, [&](const PurgeNote& note) { seen.push_back(note.key); });
  EXPECT_EQ(n, 10u);
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], "k" + std::to_string(i));

  // After the drain the lane is back on the lock-free ring path.
  grid.Post(0, 1, Note(1, "fresh"));
  seen.clear();
  grid.Drain(1, [&](const PurgeNote& note) { seen.push_back(note.key); });
  EXPECT_EQ(seen, std::vector<std::string>{"fresh"});
}

TEST(PurgeMailboxGridTest, DrainAtBoundarySeesEverythingPostedBefore) {
  // The engine's use pattern: posts happen while shards are quiescent;
  // the next drain (coherence boundary) applies the whole batch at once.
  PurgeMailboxGrid grid(2);
  size_t applied = grid.Drain(1, [](const PurgeNote&) {});
  EXPECT_EQ(applied, 0u);  // nothing posted -> boundary is a no-op
  for (int i = 0; i < 3; ++i) grid.Post(0, 1, Note(1, "k"));
  applied = grid.Drain(1, [](const PurgeNote&) {});
  EXPECT_EQ(applied, 3u);  // one batch, not one-at-a-time
  EXPECT_EQ(grid.Drain(1, [](const PurgeNote&) {}), 0u);
}

TEST(PurgeMailboxGridTest, ConcurrentSpscProducerConsumer) {
  // One producer thread, one consumer thread on a single lane — the
  // shape TSan checks. Small ring so the overflow path races too.
  PurgeMailboxGrid grid(2, /*ring_capacity=*/8);
  constexpr int kNotes = 5000;
  std::thread producer([&] {
    for (int i = 0; i < kNotes; ++i) grid.Post(0, 1, Note(1, std::to_string(i)));
  });
  std::vector<std::string> seen;
  seen.reserve(kNotes);
  while (seen.size() < kNotes) {
    grid.Drain(1, [&](const PurgeNote& note) { seen.push_back(note.key); });
  }
  producer.join();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kNotes));
  for (int i = 0; i < kNotes; ++i) EXPECT_EQ(seen[i], std::to_string(i));
}

TEST(PurgeMailboxGridTest, RingRefilledDuringDrainStaysAheadOfSpill) {
  // A two-slot ring makes the race window wide: the producer refills the
  // ring after a drain has emptied it and spills before that drain looks
  // at the diversion flag. The refilled ring notes are older than the
  // spill and must be applied first.
  PurgeMailboxGrid grid(2, /*ring_capacity=*/2);
  constexpr int kNotes = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kNotes; ++i) grid.Post(0, 1, Note(1, std::to_string(i)));
  });
  int next = 0;
  bool in_order = true;
  while (next < kNotes) {
    grid.Drain(1, [&](const PurgeNote& note) {
      in_order = in_order && note.key == std::to_string(next);
      ++next;
    });
  }
  producer.join();
  EXPECT_EQ(next, kNotes);
  EXPECT_TRUE(in_order);
}

}  // namespace
}  // namespace speedkit::cache
