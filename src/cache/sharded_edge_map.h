// The physical CDN edge tier, shared across fleet shards.
//
// One slot per edge POP: the HTTP cache and the outage flag. The sharded
// execution engine builds ONE of these and hands every shard stack a `Cdn`
// view onto it; edge e is owned by shard (e % shards), and because clients
// pin to edges by stable hash, a shard only ever touches its own slots on
// the request path. Ownership is shard-PRIVATE: owned access takes no lock
// (there is nothing to serialize — accesses are disjoint by construction),
// and debug builds assert the discipline on every owned-path access via
// `owned_slot()`. Each slot is cache-line aligned so adjacent slots —
// which belong to DIFFERENT shards under the e % shards interleaving —
// never false-share a line.
//
// No purge crosses shards: each shard's invalidation pipeline purges
// exactly the edges it owns, and those edges cache only that shard's own
// origin replica.
#ifndef SPEEDKIT_CACHE_SHARDED_EDGE_MAP_H_
#define SPEEDKIT_CACHE_SHARDED_EDGE_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/http_cache.h"
#include "common/histogram.h"
#include "common/sim_time.h"

namespace speedkit::cache {

inline constexpr size_t kCacheLineBytes = 64;

// Per-edge degraded-operation accounting (fault injection, E14). Lives in
// the owning shard's Cdn view (cache-line-aligned, shard-local — never in
// the shared map), merged across shards only after the shard threads join.
struct EdgeFaultStats {
  uint64_t down_rejects = 0;    // requests that found the edge down
  uint64_t purges_dropped = 0;  // purge deliveries lost (edge down / faulted)
  uint64_t purges_delayed = 0;  // purge deliveries on the slow path
  // Propagation delay (us) of every purge delivery scheduled to this edge
  // — slow-path deliveries included, in-flight losses not (they never get
  // a delay). Feeds the `edge.purge_delay_us` metric.
  Histogram purge_delay_us;

  EdgeFaultStats& operator+=(const EdgeFaultStats& other) {
    down_rejects += other.down_rejects;
    purges_dropped += other.purges_dropped;
    purges_delayed += other.purges_delayed;
    purge_delay_us.Merge(other.purge_delay_us);
    return *this;
  }
};

class ShardedEdgeMap {
 public:
  // Cache-line aligned so a slot never straddles a line with its neighbor
  // (owned by a different shard). No mutex: owned access is lock-free and
  // the ownership discipline is asserted in debug builds.
  struct alignas(kCacheLineBytes) EdgeSlot {
    explicit EdgeSlot(size_t capacity_bytes)
        : cache(/*shared=*/true, capacity_bytes) {}

    HttpCache cache;
    // Outage flag, toggled and read only by the owning shard (fault
    // windows are mirrored per shard in the shard's own event queue).
    bool down = false;
  };

  // `edge_capacity_bytes` 0 = unbounded per edge.
  ShardedEdgeMap(int num_edges, size_t edge_capacity_bytes) {
    slots_.reserve(static_cast<size_t>(num_edges));
    for (int i = 0; i < num_edges; ++i) {
      slots_.push_back(std::make_unique<EdgeSlot>(edge_capacity_bytes));
    }
  }

  int num_edges() const { return static_cast<int>(slots_.size()); }

  // Undiscriminated access — construction, post-join aggregation, tests.
  // Request paths go through owned_slot() so debug builds can catch a
  // cross-shard access.
  EdgeSlot& slot(int physical) { return *slots_[static_cast<size_t>(physical)]; }
  const EdgeSlot& slot(int physical) const {
    return *slots_[static_cast<size_t>(physical)];
  }

  // Declares the ownership partition (edge e belongs to shard e % shards).
  // Idempotent; every view of one map must declare the same partition.
  // Called by Cdn construction before any shard thread starts, so the
  // plain int needs no synchronization.
  void BindOwnership(int shards) {
    assert(shards >= 1);
    assert((owner_shards_ == 1 || owner_shards_ == shards) &&
           "conflicting ownership partitions over one edge map");
    owner_shards_ = shards;
  }
  int OwnerOf(int physical) const { return physical % owner_shards_; }

  // Owned access: the lock-free request path. In debug builds, aborts when
  // `shard` is not the owner of `physical` under the bound partition —
  // the runtime fence that replaced the per-slot striped locks.
  EdgeSlot& owned_slot(int physical, int shard) {
    assert(OwnerOf(physical) == shard &&
           "cross-shard edge access: slot is owned by another shard");
    (void)shard;
    return *slots_[static_cast<size_t>(physical)];
  }
  const EdgeSlot& owned_slot(int physical, int shard) const {
    assert(OwnerOf(physical) == shard &&
           "cross-shard edge access: slot is owned by another shard");
    (void)shard;
    return *slots_[static_cast<size_t>(physical)];
  }

 private:
  // unique_ptr slots: slot addresses must stay stable while shards hold
  // references, and aligned new gives each alignas(64) slot its own lines.
  std::vector<std::unique_ptr<EdgeSlot>> slots_;
  int owner_shards_ = 1;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_SHARDED_EDGE_MAP_H_
