// ShardedFleet: the deterministic sharded execution engine.
//
// Partitions a simulated deployment into `StackConfig::shards` coherence
// domains. Each shard is a full SpeedKitStack replica — own clock, event
// queue, forked PCG stream, origin, sketch, pipeline — and its Cdn builds
// and owns the shard's edges of the physical tier. Clients partition by
// the edge their id hashes to (edge e belongs to shard e % shards), so a
// shard simulates exactly the clients its edges serve and never touches
// another shard's state.
//
// The invariant that makes this an *engine* and not just a partition:
// because shards share nothing mutable (each owns its edges outright) and
// every shard's RNG stream is derived from (seed, shard) alone, the merged
// result of a run is a pure function of (seed, shards) — bit-identical
// whether the shards execute on 1 thread or 16, in any interleaving.
// Thread count buys wall-clock speed, never different numbers;
// bench/fig_throughput.cc gates this with a fingerprint self-check.
//
// What sharding changes (and shards=1 does not): cross-shard coupling is
// cut — each shard has its own origin/store replica and write stream, so
// `shards` is a MODEL parameter like cdn_edges, not a tuning knob. Results
// at shards=1 reproduce the classic single-domain stack exactly.
#ifndef SPEEDKIT_CORE_FLEET_H_
#define SPEEDKIT_CORE_FLEET_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/stack.h"

namespace speedkit::core {

class ShardedFleet {
 public:
  // Builds config.shards stack replicas, each owning its shard's edges.
  // Aborts on invalid config (see StackConfig::Validate).
  explicit ShardedFleet(const StackConfig& config);

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  int shards() const { return static_cast<int>(stacks_.size()); }
  SpeedKitStack& shard(int i) { return *stacks_[static_cast<size_t>(i)]; }

 private:
  std::vector<std::unique_ptr<SpeedKitStack>> stacks_;
};

// Runs fn(shard) for every shard index on up to `threads` workers
// (threads <= 1 runs serially on the calling thread — byte-identical work
// either way; that IS the engine's contract). `fn` must confine itself to
// its shard's state.
void ForEachShard(int shards, int threads, const std::function<void(int)>& fn);

}  // namespace speedkit::core

#endif  // SPEEDKIT_CORE_FLEET_H_
