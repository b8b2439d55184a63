// Cross-shard purge mailboxes for the sharded fleet engine.
//
// Edge slot ownership is shard-private (edge e belongs to shard e % shards
// by construction), so the request path never locks. The one kind of
// traffic that genuinely crosses the partition — a purge aimed at an edge
// another shard owns — is carried here instead of by locking the remote
// slot inline: the sender posts a PurgeNote into the owning shard's
// mailbox, and the owner drains its mailbox in a batch at its next
// coherence boundary (the sketch refresh interval Δ — the same boundary
// that already bounds client staleness, so deferring remote purges to it
// adds no new staleness class; see Eyal et al., "Cache Serializability",
// for the argument that edge tiers scale when cross-node coordination is
// batched at consistency boundaries instead of taken per operation).
//
// Topology: a shards×shards grid of bounded single-producer/single-consumer
// rings — lane (from, to) is written only by shard `from` and read only by
// shard `to`, so posting and draining are lock-free atomic cursor moves.
// The only mutex in the tier guards a lane's unbounded overflow spill,
// taken when a burst outruns the ring (and by the drain that empties it) —
// i.e. a mutex exists exactly where cross-shard traffic is real and bursty,
// never on the request path.
//
// Determinism: Drain applies notes in ascending producer-shard order, FIFO
// within a producer (the overflow diversion flag below preserves FIFO even
// across a ring-full episode). Posts made while shards are quiescent —
// before a run, or at a barrier — are therefore applied in an order that is
// a pure function of the posts themselves, which is what keeps fleet
// results a pure function of (seed, shards) at any thread count.
#ifndef SPEEDKIT_CACHE_PURGE_MAILBOX_H_
#define SPEEDKIT_CACHE_PURGE_MAILBOX_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace speedkit::cache {

inline constexpr size_t kCacheLineBytes = 64;

// One cross-shard purge: remove `key` from the physical edge `edge`,
// posted at `posted_at` on the sender's clock (recorded for accounting;
// the purge takes effect when the owner drains).
struct PurgeNote {
  int edge = 0;
  SimTime posted_at;
  std::string key;
};

// Bounded lock-free SPSC ring of PurgeNotes. Exactly one producer thread
// may call TryPush and one consumer thread TryPop; the cursors are padded
// to their own cache lines so the producer and consumer never false-share.
class SpscPurgeRing {
 public:
  explicit SpscPurgeRing(size_t capacity = kDefaultCapacity)
      : buf_(RoundUpPow2(capacity)), mask_(buf_.size() - 1) {}

  // Producer side. Moves from `note` ONLY on success; a full ring returns
  // false and leaves the note intact for the caller to spill elsewhere.
  bool TryPush(PurgeNote& note) {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head >= buf_.size()) return false;
    buf_[tail & mask_] = std::move(note);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  bool TryPush(PurgeNote&& note) {
    PurgeNote local = std::move(note);
    return TryPush(local);
  }

  // Consumer side. False when empty.
  bool TryPop(PurgeNote* out) {
    uint64_t head = head_.load(std::memory_order_relaxed);
    uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    *out = std::move(buf_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  size_t SizeApprox() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }
  size_t capacity() const { return buf_.size(); }

  static constexpr size_t kDefaultCapacity = 1024;

 private:
  static size_t RoundUpPow2(size_t n) {
    size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<PurgeNote> buf_;
  size_t mask_;
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};  // consumer cursor
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};  // producer cursor
};

// shards × shards mailbox grid. Lane (from, to) carries the purges shard
// `from` addresses to edges shard `to` owns.
class PurgeMailboxGrid {
 public:
  explicit PurgeMailboxGrid(int shards, size_t ring_capacity =
                                            SpscPurgeRing::kDefaultCapacity)
      : shards_(shards) {
    assert(shards >= 1);
    lanes_.reserve(static_cast<size_t>(shards) * static_cast<size_t>(shards));
    for (int i = 0; i < shards * shards; ++i) {
      lanes_.push_back(std::make_unique<Lane>(ring_capacity));
    }
  }

  int shards() const { return shards_; }

  // Called by shard `from` (its thread only — SPSC). Never blocks on the
  // fast path; a full ring diverts to the lane's mutexed overflow spill,
  // and KEEPS diverting until the consumer empties the spill, so per-
  // producer FIFO order survives the episode.
  void Post(int from, int to, PurgeNote note) {
    Lane& l = lane(from, to);
    if (!l.diverted.load(std::memory_order_acquire)) {
      if (l.ring.TryPush(note)) return;
      l.diverted.store(true, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lock(l.overflow_mu);
    // A drain may have completed while we waited for this mutex (it swaps
    // the spill out, then clears the flag). Appending now would strand the
    // note — drains only read the spill when the flag is set — so retry
    // the ring instead: that drain emptied it, and we are this lane's only
    // producer, so the push cannot lose a race for the space.
    if (!l.diverted.load(std::memory_order_acquire) && l.overflow.empty() &&
        l.ring.TryPush(note)) {
      return;
    }
    l.diverted.store(true, std::memory_order_release);
    l.overflow.push_back(std::move(note));
  }

  // Called by shard `to` (its thread only) at a coherence boundary. Applies
  // every pending note in deterministic order: ascending producer shard,
  // FIFO within each producer. Returns the number of notes applied.
  size_t Drain(int to, const std::function<void(const PurgeNote&)>& apply) {
    size_t n = 0;
    for (int from = 0; from < shards_; ++from) {
      Lane& l = lane(from, to);
      PurgeNote note;
      while (l.ring.TryPop(&note)) {
        apply(note);
        ++n;
      }
      if (l.diverted.load(std::memory_order_acquire)) {
        std::vector<PurgeNote> ring_tail;
        std::vector<PurgeNote> spilled;
        {
          std::lock_guard<std::mutex> lock(l.overflow_mu);
          // The producer may have refilled the ring after the loop above
          // and only then diverted, so the ring can still hold notes older
          // than the whole spill. While the flag is set and this mutex is
          // held the producer cannot reach the ring: empty it first.
          while (l.ring.TryPop(&note)) ring_tail.push_back(std::move(note));
          spilled.swap(l.overflow);
          // Clearing under the mutex orders the flag after the swap: a
          // producer that sees diverted==false afterwards starts a fresh
          // ring epoch strictly younger than everything just spilled.
          l.diverted.store(false, std::memory_order_release);
        }
        for (std::vector<PurgeNote>* batch : {&ring_tail, &spilled}) {
          for (PurgeNote& s : *batch) {
            apply(s);
            ++n;
          }
        }
      }
    }
    return n;
  }

  // Upper-bound estimate of notes pending for `to` (racy by nature; exact
  // when producers are quiescent).
  size_t PendingApprox(int to) const {
    size_t n = 0;
    for (int from = 0; from < shards_; ++from) {
      const Lane& l = lane(from, to);
      n += l.ring.SizeApprox();
      if (l.diverted.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(l.overflow_mu);
        n += l.overflow.size();
      }
    }
    return n;
  }

 private:
  // Each lane on its own heap allocation (and the ring's cursors on their
  // own lines) so no two shards' cross-shard traffic false-shares.
  struct Lane {
    explicit Lane(size_t ring_capacity) : ring(ring_capacity) {}
    SpscPurgeRing ring;
    std::atomic<bool> diverted{false};
    mutable std::mutex overflow_mu;
    std::vector<PurgeNote> overflow;
  };

  Lane& lane(int from, int to) {
    return *lanes_[static_cast<size_t>(to) * static_cast<size_t>(shards_) +
                   static_cast<size_t>(from)];
  }
  const Lane& lane(int from, int to) const {
    return *lanes_[static_cast<size_t>(to) * static_cast<size_t>(shards_) +
                   static_cast<size_t>(from)];
  }

  int shards_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_PURGE_MAILBOX_H_
