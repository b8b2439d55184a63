// HTTP-semantics cache layer, instantiated as the browser cache (private)
// and each CDN edge (shared).
//
// Freshness is computed against the response's origin render time
// (`generated_at`), which models correct Age propagation across layers: a
// response that sat 40 s at a CDN edge has only `ttl - 40s` of freshness
// left when the browser stores it. Stale entries are retained for
// conditional revalidation (If-None-Match -> 304 extends their life).
#ifndef SPEEDKIT_CACHE_HTTP_CACHE_H_
#define SPEEDKIT_CACHE_HTTP_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/lru_cache.h"
#include "common/sim_time.h"
#include "http/message.h"

namespace speedkit::cache {

// One cached response version: the response (its head and body blocks
// shared with every other tier that holds the version) and the freshness
// this cache class derived from the head's memoized Cache-Control. 72 B.
struct CacheEntry {
  http::HttpResponse response;
  Duration ttl = Duration::Zero();  // freshness lifetime from generated_at
  Duration swr = Duration::Zero();  // stale-while-revalidate window
  bool requires_revalidation = false;  // no-cache: usable only after 304

  SimTime FreshUntil() const { return response.generated_at + ttl; }
  bool IsFresh(SimTime now) const {
    return !requires_revalidation && now < FreshUntil();
  }
  // Expired, but still inside the stale-while-revalidate window: may be
  // served while a background revalidation runs (RFC 5861). Only safe to
  // use when something else bounds staleness — for Speed Kit, the sketch.
  bool WithinSwrWindow(SimTime now) const {
    return !requires_revalidation && now < FreshUntil() + swr;
  }
};

// The shared payloads a handle-form freeze blob refers to by index: one
// body and one header block per entry. A spilled cache keeps this next to
// its blob, so its entries stay the very buffers and blocks that live
// caches hold.
struct FrozenHandles {
  std::vector<http::Body> bodies;
  std::vector<http::HeaderMap> headers;

  // Bytes the two lists reserve; the shared payloads are not counted.
  size_t capacity_bytes() const {
    return bodies.capacity() * sizeof(http::Body) +
           headers.capacity() * sizeof(http::HeaderMap);
  }
};

enum class LookupOutcome {
  kFreshHit,   // entry returned, safe to serve under expiration rules
  kStaleHit,   // entry present but expired; candidate for revalidation
  kMiss,
};

struct LookupResult {
  LookupOutcome outcome = LookupOutcome::kMiss;
  const CacheEntry* entry = nullptr;  // valid for hits until next mutation
};

struct HttpCacheStats {
  uint64_t fresh_hits = 0;
  uint64_t stale_hits = 0;
  uint64_t misses = 0;
  uint64_t stores = 0;
  uint64_t store_rejects = 0;  // no-store / private-at-shared / varying
  uint64_t refreshes = 0;      // 304-driven lifetime extensions
  uint64_t purges = 0;
};

class HttpCache {
 public:
  // `shared` selects which Cache-Control directives apply (s-maxage,
  // private). `capacity_bytes` 0 = unbounded.
  HttpCache(bool shared, size_t capacity_bytes);

  LookupResult Lookup(std::string_view key, SimTime now);

  // Stores `response` under `key` if its Cache-Control permits storage in
  // this cache class. Returns true if stored. Responses without explicit
  // freshness get TTL zero (stored for revalidation only). The key is the
  // URL alone, so a response that varies on request headers the key does
  // not hold is refused and counted as a store reject; no route of the
  // origin sends one. Freshness comes from the head's memo, not a parse,
  // and runs from the response's render time, so no clock is needed.
  bool Store(std::string_view key, const http::HttpResponse& response);

  // Applies a 304: extends the stored entry's freshness using the new
  // Cache-Control and render time. No-op if the entry vanished.
  void Refresh(std::string_view key, const http::HttpResponse& not_modified);

  // Invalidation-based removal (CDN purge API).
  bool Purge(std::string_view key);
  void Clear();

  // Cold-client spill: serializes the full cache state — entries in
  // recency order, stats, eviction history — into one flat byte string,
  // and reconstructs it exactly. A freeze/thaw round trip is
  // behavior-neutral: every subsequent lookup, store and eviction decision
  // is identical to the never-frozen cache, so fleet results cannot depend
  // on which clients went cold. Thaw replaces this cache's contents; it
  // returns false (leaving the cache cleared) on a corrupt or truncated
  // blob.
  //
  // Without `handles` the blob is self-contained: it carries every body's
  // bytes and every header name and value. With `handles`, Freeze appends
  // each entry's body and header block to *handles and writes their
  // indexes instead, so a spilled cache keeps sharing the buffers and
  // blocks live caches hold; that blob thaws only against the same lists,
  // and an index outside them fails the thaw. A handle blob's capacity is
  // exactly its size.
  std::string Freeze(FrozenHandles* handles = nullptr) const;
  bool Thaw(std::string_view blob, const FrozenHandles* handles = nullptr);

  bool shared() const { return shared_; }
  size_t size() const { return entries_.size(); }
  size_t used_bytes() const { return entries_.used_bytes(); }
  uint64_t evictions() const { return entries_.evictions(); }
  const HttpCacheStats& stats() const { return stats_; }

 private:
  bool shared_;
  LruCache<CacheEntry> entries_;
  HttpCacheStats stats_;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_HTTP_CACHE_H_
