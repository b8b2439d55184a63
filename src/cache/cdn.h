// Multi-edge CDN substrate: the edge POPs one coherence domain owns.
//
// N shared HTTP caches ("edges"); each client is pinned to one edge by a
// stable hash of its client id, mirroring anycast routing to the nearest
// POP. Purges fan out to every edge — the invalidation pipeline schedules
// the fan-out with per-edge propagation delays, so the CDN itself exposes
// synchronous per-edge purge.
//
// A sharded fleet (core/fleet.h) splits the physical tier across its
// shards: physical edge e belongs to shard e % shards, and each shard's
// Cdn builds and holds only the edges it owns. Edge indices exposed by
// this class are LOCAL (dense 0..num_edges()-1, local index e / shards);
// LocalIndexOf() converts a physical index from shard-agnostic config
// (fault schedules) into the local space. With the default one shard, a
// Cdn holds the whole tier and local and physical indices coincide.
//
// Concurrency model: a shard's Cdn holds no other shard's edge, so
// nothing here is shared, locked or asserted. Each edge — its cache,
// outage flag, fault counters and flight table — is cache-line aligned,
// so no line holds two shards' edges; per-edge counters are merged only
// after the shard threads join. No purge crosses shards: a shard's
// pipeline purges only the edges its Cdn holds, and those edges cache
// only that shard's origin replica.
#ifndef SPEEDKIT_CACHE_CDN_H_
#define SPEEDKIT_CACHE_CDN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/http_cache.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/sim_time.h"
#include "common/status.h"

namespace speedkit::cache {

inline constexpr size_t kCacheLineBytes = 64;

// Per-edge degraded-operation accounting (fault injection, E14). Kept
// with the edge in its owning shard's Cdn, merged across shards only
// after the shard threads join.
struct EdgeFaultStats {
  uint64_t down_rejects = 0;    // requests that found the edge down
  uint64_t purges_dropped = 0;  // purge deliveries lost (edge down / faulted)
  // Propagation delay (us) of every purge delivery scheduled to this edge
  // (in-flight losses never get a delay). Feeds the `edge.purge_delay_us`
  // metric.
  Histogram purge_delay_us;

  EdgeFaultStats& operator+=(const EdgeFaultStats& other) {
    down_rejects += other.down_rejects;
    purges_dropped += other.purges_dropped;
    purge_delay_us.Merge(other.purge_delay_us);
    return *this;
  }
};

// How the edge tier treats concurrent misses for the same key while an
// origin fetch is already in flight. The simulator and speedkit-edged
// both run this one model.
//
//   kInstant   Legacy model: an origin response is visible at the edge at
//              fetch-START sim time, so a concurrent miss never exists and
//              thundering herds are structurally invisible. Default —
//              every pre-existing fingerprint stays bit-identical.
//   kCoalesce  Realistic window + single-flight: the leader's response
//              becomes visible only at fetch COMPLETION (start + origin
//              round trip); arrivals inside the window join the leader's
//              flight, paying the remaining window plus their own
//              client<->edge leg, and the origin sees ONE fetch.
enum class OriginFlightMode { kInstant, kCoalesce };

// Stable names used by the --flight flag: "instant", "coalesce".
std::string_view OriginFlightModeName(OriginFlightMode mode);

// Parses a mode name (as printed by OriginFlightModeName). On success
// writes `*out`; unknown names return InvalidArgument listing the valid set.
Status ParseOriginFlightMode(std::string_view text, OriginFlightMode* out);

class Cdn {
 public:
  // The edges `shard` owns out of `shards` coherence domains over a tier
  // of `physical_edges` POPs; the defaults hold the whole tier as one
  // domain. Requires physical_edges >= 1 (the stack validates its config
  // before constructing one), 0 <= shard < shards, and physical_edges
  // divisible by shards (so every shard owns the same number of edges).
  // Every edge cache is unbounded. `flight_mode` is how every owned edge
  // treats concurrent misses (see OriginFlightMode).
  Cdn(int physical_edges, int shard = 0, int shards = 1,
      OriginFlightMode flight_mode = OriginFlightMode::kInstant);

  // Owned (local) edge count.
  int num_edges() const { return static_cast<int>(edges_.size()); }

  // The LOCAL index of the edge serving `client_id` (stable hash routing
  // over the PHYSICAL tier). Only meaningful when OwnsClient(client_id).
  int RouteFor(uint64_t client_id) const;

  // Whether this Cdn's shard owns the edge `client_id` routes to — the
  // client-to-shard partition function of the fleet engine.
  bool OwnsClient(uint64_t client_id) const;

  // Local index for a physical edge index, or -1 if another shard owns it.
  int LocalIndexOf(int physical) const {
    if (physical < 0 || physical >= physical_edges_) return -1;
    return physical % shards_ == shard_ ? physical / shards_ : -1;
  }

  HttpCache& edge(int i) { return at(i).cache; }
  const HttpCache& edge(int i) const { return at(i).cache; }

  // Edge-node outage toggles, driven by the stack's fault schedule (each
  // shard mirrors only its own edges' windows into its own event queue).
  // A down edge serves nothing and loses purges delivered to it; its cache
  // contents survive the outage (a POP reboot, not a wipe).
  void SetEdgeDown(int i, bool down) { at(i).down = down; }
  bool EdgeAvailable(int i) const { return !at(i).down; }

  // Fault accounting, per owned edge; aggregation across shards happens
  // after the shard threads join.
  //
  // Called by the proxy when a request found its edge down.
  void NoteEdgeReject(int i) { at(i).faults.down_rejects++; }
  // Called by the invalidation pipeline when a purge is faulted.
  void NotePurgeDropped(int i) { at(i).faults.purges_dropped++; }
  // Called by the pipeline for every purge delivery it schedules, with the
  // delivery's propagation delay.
  void NotePurgeScheduled(int i, Duration delay) {
    at(i).faults.purge_delay_us.Add(delay.micros());
  }

  // Purges `key` from one OWNED edge; returns true if the edge held it. A
  // purge arriving while the edge is down is lost — the real CDN API would
  // retry; we count it instead so E14 can report delivery loss.
  bool PurgeEdge(int i, std::string_view key) {
    Edge& e = at(i);
    if (e.down) {
      e.faults.purges_dropped++;
      return false;
    }
    return e.cache.Purge(key);
  }

  // -- origin flight windows (single-flight coalescing) -----------------
  OriginFlightMode flight_mode() const { return flight_mode_; }

  // Registers an origin fetch for `key` at owned edge `i`, completing at
  // `ready_at`. No-op while an unexpired flight for the key is already
  // open (a miss inside the window that still reached the origin never
  // extends it; after expiry the next miss leads a fresh flight).
  void BeginFlight(int i, const std::string& key, SimTime now,
                   SimTime ready_at);

  // Completion time of the open flight for `key` at edge `i`, or nullopt
  // when none is in progress at `now`. Expired entries are reaped lazily
  // on access (and wholesale once the table grows past a threshold).
  std::optional<SimTime> OpenFlightReadyAt(int i, const std::string& key,
                                           SimTime now);

  // Called by the proxy for each arrival served the leader's response
  // inside an open window.
  void NoteFlightJoin() { flight_joins_++; }

  uint64_t flights_started() const { return flights_started_; }
  uint64_t flight_joins() const { return flight_joins_; }

  // Aggregated stats across owned edges.
  HttpCacheStats TotalStats() const;
  const EdgeFaultStats& edge_fault_stats(int i) const { return at(i).faults; }
  EdgeFaultStats TotalFaultStats() const;

 private:
  // One owned edge POP. Cache-line aligned (and so a whole number of
  // lines long), so no cache line holds two shards' edges.
  struct alignas(kCacheLineBytes) Edge {
    HttpCache cache{/*shared=*/true, /*capacity_bytes=*/0};
    // Outage flag, toggled by the owning shard's fault-schedule events.
    bool down = false;
    EdgeFaultStats faults;
    // Open origin flights: key -> completion time (mode kCoalesce only;
    // an empty table allocates nothing). Expired entries are reaped
    // lazily.
    std::unordered_map<std::string, SimTime, StringHash, std::equal_to<>>
        flights;
  };

  Edge& at(int local) { return edges_[static_cast<size_t>(local)]; }
  const Edge& at(int local) const {
    return edges_[static_cast<size_t>(local)];
  }

  int physical_edges_;
  int shard_;
  int shards_;
  OriginFlightMode flight_mode_;
  std::vector<Edge> edges_;  // local index
  // Origin flight-window accounting (mode kCoalesce only).
  uint64_t flights_started_ = 0;
  uint64_t flight_joins_ = 0;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_CDN_H_
