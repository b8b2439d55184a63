// Multi-edge CDN substrate — a (possibly partial) view over the physical
// edge tier.
//
// N shared HTTP caches ("edges"); each client is pinned to one edge by a
// stable hash of its client id, mirroring anycast routing to the nearest
// POP. Purges fan out to every edge — the invalidation pipeline schedules
// the fan-out with per-edge propagation delays, so the CDN itself exposes
// synchronous per-edge purge.
//
// Two construction modes:
//  * `Cdn(num_edges, capacity)` builds a private ShardedEdgeMap and views
//    all of it — the classic single-domain stack.
//  * `Cdn(map, shard, shards)` views only the edges owned by `shard`
//    (physical edge e belongs to shard e % shards) of a map shared with
//    the other shards of a fleet. Edge indices exposed by this class are
//    LOCAL (dense 0..num_edges()-1 over owned edges); the translation to
//    physical slots is internal, and LocalIndexOf() converts a physical
//    index from shard-agnostic config (fault schedules) into the local
//    space.
//
// Concurrency model: edge ownership is shard-private, so every owned-edge
// accessor here is LOCK-FREE — the only thread that may call it is the
// owning shard's, a discipline debug builds assert on each access
// (ShardedEdgeMap::owned_slot). Per-edge fault counters/histograms live in
// a cache-line-aligned accumulator inside this view (one per shard), never
// in the shared map, and are merged only after the shard threads join.
// No purge crosses shards: a shard's pipeline purges only the edges this
// view owns, and those edges cache only that shard's origin replica.
#ifndef SPEEDKIT_CACHE_CDN_H_
#define SPEEDKIT_CACHE_CDN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/http_cache.h"
#include "cache/sharded_edge_map.h"
#include "common/hash.h"
#include "common/sim_time.h"

namespace speedkit::cache {

// How the edge tier treats concurrent misses for the same key while an
// origin fetch is already in flight. The simulator and speedkit-edged
// both run this one model.
//
//   kInstant   Legacy model: an origin response is visible at the edge at
//              fetch-START sim time, so a concurrent miss never exists and
//              thundering herds are structurally invisible. Default —
//              every pre-existing fingerprint stays bit-identical.
//   kHerd      Realistic window, no collapsing: the leader's response
//              becomes visible only at fetch COMPLETION (start + origin
//              round trip); arrivals inside the window each go to the
//              origin themselves. The honest baseline a real edge without
//              request collapsing would show.
//   kCoalesce  Window + single-flight: arrivals inside the window join the
//              leader's flight, paying the remaining window plus their own
//              client<->edge leg, and the origin sees ONE fetch.
enum class OriginFlightMode { kInstant, kHerd, kCoalesce };

std::string_view OriginFlightModeName(OriginFlightMode mode);

class Cdn {
 public:
  // Full view over a private map. `num_edges` must be >= 1 (the stack
  // validates its config before constructing one); `edge_capacity_bytes`
  // 0 = unbounded per edge.
  Cdn(int num_edges, size_t edge_capacity_bytes);

  // Shard view: edges owned by `shard` out of `shards` coherence domains
  // over a shared physical map. Requires 0 <= shard < shards and
  // map->num_edges() divisible by shards (so every shard views the same
  // number of edges).
  Cdn(std::shared_ptr<ShardedEdgeMap> map, int shard, int shards);

  // Owned (local) edge count.
  int num_edges() const { return static_cast<int>(owned_.size()); }
  // Size of the whole physical tier (== num_edges() for a full view).
  int physical_edges() const { return map_->num_edges(); }

  // The LOCAL index of the edge serving `client_id` (stable hash routing
  // over the PHYSICAL tier). Only meaningful when OwnsClient(client_id).
  int RouteFor(uint64_t client_id) const;

  // Whether this view's shard owns the edge `client_id` routes to — the
  // client-to-shard partition function of the fleet engine.
  bool OwnsClient(uint64_t client_id) const;

  // Local index for a physical edge index, or -1 if another shard owns it.
  int LocalIndexOf(int physical) const {
    if (physical < 0 || physical >= map_->num_edges()) return -1;
    return physical % shards_ == shard_ ? physical / shards_ : -1;
  }

  // Lock-free owned access: only the owning shard's thread may touch an
  // edge, which debug builds assert per access.
  HttpCache& edge(int i) { return slot(i).cache; }
  const HttpCache& edge(int i) const { return slot(i).cache; }

  // Edge-node outage toggles, driven by the stack's fault schedule (each
  // shard mirrors only its own edges' windows into its own event queue, so
  // the flag is owner-written and owner-read). A down edge serves nothing
  // and loses purges delivered to it; its cache contents survive the
  // outage (a POP reboot, not a wipe).
  void SetEdgeDown(int i, bool down) { slot(i).down = down; }
  bool EdgeAvailable(int i) const { return !slot(i).down; }

  // Fault accounting: increments go to this view's shard-local aligned
  // accumulator, never into the shared map — no cross-shard cache-line
  // traffic; aggregation happens after the shard threads join.
  //
  // Called by the proxy when a request found its edge down.
  void NoteEdgeReject(int i) { fault_acc(i).down_rejects++; }
  // Called by the invalidation pipeline when a purge is faulted.
  void NotePurgeDropped(int i) { fault_acc(i).purges_dropped++; }
  void NotePurgeDelayed(int i) { fault_acc(i).purges_delayed++; }
  // Called by the pipeline for every purge delivery it schedules, with the
  // delivery's final propagation delay (slow-path stretch included).
  void NotePurgeScheduled(int i, Duration delay) {
    fault_acc(i).purge_delay_us.Add(delay.micros());
  }

  // Purges `key` from one OWNED edge; returns true if the edge held it. A
  // purge arriving while the edge is down is lost — the real CDN API would
  // retry; we count it instead so E14 can report delivery loss.
  bool PurgeEdge(int i, std::string_view key) {
    ShardedEdgeMap::EdgeSlot& s = slot(i);
    if (s.down) {
      fault_acc(i).purges_dropped++;
      return false;
    }
    return s.cache.Purge(key);
  }

  // -- origin flight windows (single-flight coalescing) -----------------
  // Registers an origin fetch for `key` at owned edge `i`, completing at
  // `ready_at`. No-op while an unexpired flight for the key is already
  // open (herd fetches inside the window never extend it; after expiry the
  // next miss leads a fresh flight). Shard-local like the edge itself.
  void BeginFlight(int i, const std::string& key, SimTime now,
                   SimTime ready_at);

  // Completion time of the open flight for `key` at edge `i`, or nullopt
  // when none is in progress at `now`. Expired entries are reaped lazily
  // on access (and wholesale once the table grows past a threshold).
  std::optional<SimTime> OpenFlightReadyAt(int i, const std::string& key,
                                           SimTime now);

  // Called by the proxy for each arrival inside an open window: a join
  // (kCoalesce — served the leader's response) or a herd fetch (kHerd —
  // went to the origin anyway).
  void NoteFlightJoin() { faults_->flight_joins++; }
  void NoteHerdFetch() { faults_->herd_fetches++; }

  uint64_t flights_started() const { return faults_->flights_started; }
  uint64_t flight_joins() const { return faults_->flight_joins; }
  uint64_t herd_fetches() const { return faults_->herd_fetches; }

  // Aggregated stats across owned edges.
  HttpCacheStats TotalStats() const;
  const EdgeFaultStats& edge_fault_stats(int i) const {
    return faults_->per_edge[static_cast<size_t>(i)];
  }
  EdgeFaultStats TotalFaultStats() const;

 private:
  // This shard's fault and flight counters, on their own cache lines: the
  // struct head is 64-aligned via aligned new, so two shards' accumulators
  // never share a line the way slot-resident counters used to.
  struct alignas(kCacheLineBytes) ShardLocalStats {
    std::vector<EdgeFaultStats> per_edge;  // local index
    // Origin flight-window accounting (modes kHerd/kCoalesce only).
    uint64_t flights_started = 0;
    uint64_t flight_joins = 0;
    uint64_t herd_fetches = 0;
  };

  ShardedEdgeMap::EdgeSlot& slot(int local) {
    return map_->owned_slot(owned_[static_cast<size_t>(local)], shard_);
  }
  const ShardedEdgeMap::EdgeSlot& slot(int local) const {
    return map_->owned_slot(owned_[static_cast<size_t>(local)], shard_);
  }
  EdgeFaultStats& fault_acc(int local) {
    return faults_->per_edge[static_cast<size_t>(local)];
  }

  std::shared_ptr<ShardedEdgeMap> map_;
  int shard_ = 0;
  int shards_ = 1;
  // owned_[local] = physical index; dense and sorted, so iteration order
  // over local indices is deterministic.
  std::vector<int> owned_;
  std::unique_ptr<ShardLocalStats> faults_;
  // Per-owned-edge open flights: key -> completion time. Shard-private
  // like the slot itself; sized lazily on first BeginFlight so kInstant
  // stacks carry no allocation. Expired entries are reaped lazily.
  std::vector<std::unordered_map<std::string, SimTime, StringHash,
                                 std::equal_to<>>>
      flights_;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_CDN_H_
