// Tracks, per cache key, the latest freshness deadline of any copy the
// origin has handed out.
//
// This is the quantity the Cache Sketch needs on invalidation: when a write
// hits key K, stale copies of K can survive in expiration-based caches until
// `LatestExpiry(K)` — so K must sit in the sketch exactly that long. The
// origin records every served (or 304-refreshed) response here.
//
// Backed by FlatStringMap: the book is touched once per origin response
// (RecordServed) and once per write (LatestExpiry), making it one of the
// hottest maps in the stack — the open-addressing layout probes one cache
// line per lookup instead of chasing unordered_map buckets, and the
// string_view interface never allocates on the read path.
#ifndef SPEEDKIT_INVALIDATION_EXPIRY_BOOK_H_
#define SPEEDKIT_INVALIDATION_EXPIRY_BOOK_H_

#include <string_view>

#include "common/flat_map.h"
#include "common/sim_time.h"

namespace speedkit::invalidation {

class ExpiryBook {
 public:
  // Notes that a copy of `key` fresh until `fresh_until` is now in the wild.
  void RecordServed(std::string_view key, SimTime fresh_until);

  // Latest deadline among copies served so far; `now` (nothing outstanding)
  // when the key was never served or all copies have expired.
  SimTime LatestExpiry(std::string_view key, SimTime now) const;

 private:
  FlatStringMap<SimTime> deadlines_;
};

}  // namespace speedkit::invalidation

#endif  // SPEEDKIT_INVALIDATION_EXPIRY_BOOK_H_
