// The server-side Cache Sketch — the heart of Speed Kit's cache coherence
// protocol.
//
// Invariant: at any time, the sketch contains (at least) every cache key for
// which some expiration-based cache anywhere (browser or CDN edge) may still
// hold a stale copy. A key enters the sketch when its object is written
// while previously-served copies are still within their TTL; it leaves when
// the last such copy's TTL has run out (`stale_until`). Clients that check a
// fresh-enough snapshot before serving from cache therefore never read a
// value staler than the snapshot age — this is what bounds staleness to Δ.
//
// Implementation: exact membership and expiry live in a hash map + lazy
// min-heap, and that key set is all the sketch keeps. Clients receive a
// compact Bloom snapshot rebuilt from it, sized for the current number of
// tracked keys, through coherence::SketchPublication. False positives only
// cause unnecessary revalidations, never stale reads.
#ifndef SPEEDKIT_SKETCH_CACHE_SKETCH_H_
#define SPEEDKIT_SKETCH_CACHE_SKETCH_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "sketch/bloom_filter.h"

namespace speedkit::coherence {
class SketchPublication;
}  // namespace speedkit::coherence

namespace speedkit::sketch {

struct CacheSketchStats {
  uint64_t reports = 0;       // ReportInvalidation calls
  uint64_t inserts = 0;       // distinct keys added
  uint64_t extensions = 0;    // stale_until pushed out for tracked keys
  uint64_t expirations = 0;   // keys removed on expiry
  uint64_t snapshots = 0;
  uint64_t serializations = 0;  // published snapshots actually re-encoded
  size_t current_entries = 0;
};

class CacheSketch {
 public:
  // False-positive rate the published snapshot is sized for.
  static constexpr double kSnapshotFpr = 0.02;

  // One published snapshot: the immutable wire bytes and the filter they
  // describe. Simulated clients install the shared filter directly instead
  // of each deserializing a private copy — at a million clients that is
  // the difference between one filter and a million.
  struct Publication {
    std::shared_ptr<const std::string> bytes;
    std::shared_ptr<const BloomFilter> filter;
  };

  // Records that `key` was invalidated while cached copies may live until
  // `stale_until`. Extends the horizon if the key is already tracked.
  // Reports with `stale_until <= now` are dropped (nothing can be stale).
  void ReportInvalidation(std::string_view key, SimTime stale_until,
                          SimTime now);

  // Removes keys whose stale horizon has passed.
  void ExpireUntil(SimTime now);

  // True if the sketch currently tracks `key` exactly (not via the filter).
  bool Contains(std::string_view key) const;

  const CacheSketchStats& stats() const { return stats_; }
  size_t entries() const { return horizon_.size(); }

 private:
  // Snapshots leave the sketch only through coherence::SketchPublication
  // (the origin's /sketch route and every client refresh).
  friend class speedkit::coherence::SketchPublication;

  // Expires, then returns the current publication. It is rebuilt from the
  // key set only when that set changed since the last publication (insert
  // or expiry — horizon extensions don't alter the bit pattern, which is a
  // pure function of the key set and its size). Every client refresh hits
  // this, so the memo turns O(entries x k) per refresh into O(1) between
  // mutations; the sharded engine additionally relies on both views being
  // immutable once handed out. The bit pattern is insertion-order
  // insensitive, so a memoized publication equals a fresh rebuild.
  const Publication& Publish(SimTime now);

  struct HeapItem {
    SimTime at;
    std::string key;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      return a.at > b.at;
    }
  };

  std::unordered_map<std::string, SimTime> horizon_;  // key -> stale_until
  std::priority_queue<HeapItem, std::vector<HeapItem>, Later> expiry_;
  CacheSketchStats stats_;

  // Publication memo: valid while the key set is unchanged.
  Publication published_;
  bool published_dirty_ = true;
};

}  // namespace speedkit::sketch

#endif  // SPEEDKIT_SKETCH_CACHE_SKETCH_H_
