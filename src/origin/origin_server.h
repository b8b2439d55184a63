// The origin: renders HTTP responses from the object store and stamps them
// with TTLs from the configured policy.
//
// Routes (all under one host, matching the key conventions in
// invalidation/pipeline.h):
//   /api/records/<id>                 record detail (ETag "v<version>")
//   /api/queries/<query-id>           materialized query result listing
//   /api/fragments/<block>?seg=<s>    segment-scoped dynamic block
//   /api/fragments/<block>?tpl=1      anonymous template of a user block
//                                     (cacheable; placeholders only)
//   /api/fragments/<block>?user=<id>  legacy personalized block — rendered
//                                     with PII, Cache-Control: private,
//                                     no-store (the non-GDPR baseline)
//   /assets/<name>                    immutable static asset
//   /pages/<name>                     page shell
//   /sketch                           current Cache Sketch snapshot
//
// Query results are materialized incrementally from the store's write feed
// (before/after membership deltas), so listing requests are O(result), not
// O(catalog). The origin's QueryMatcher is the stack's only one: it
// matches each write once, and the matched ids also drive the invalidation
// pipeline. Every cacheable response is recorded in the ExpiryBook — the
// sketch's source of stale horizons. Conditional requests (If-None-Match)
// yield 304 with refreshed freshness.
#ifndef SPEEDKIT_ORIGIN_ORIGIN_SERVER_H_
#define SPEEDKIT_ORIGIN_ORIGIN_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/lru_cache.h"
#include "coherence/sketch_publication.h"
#include "common/sim_time.h"
#include "http/message.h"
#include "invalidation/expiry_book.h"
#include "invalidation/query_matcher.h"
#include "sim/clock.h"
#include "storage/object_store.h"
#include "ttl/ttl_policy.h"

namespace speedkit::invalidation {
class InvalidationPipeline;
}  // namespace speedkit::invalidation

namespace speedkit::origin {

// Synthetic body sizes. An optimized asset variant (skopt=1, Speed Kit's
// asset optimization service) is kOptimizedAssetFactor of the original.
inline constexpr size_t kAssetBytes = 40 * 1024;
inline constexpr size_t kShellBytes = 30 * 1024;
inline constexpr size_t kFragmentBytes = 2 * 1024;
inline constexpr double kOptimizedAssetFactor = 0.55;
// Freshness of immutable assets, and the cap on a shell's TTL.
inline constexpr Duration kAssetTtl = Duration::Seconds(86400);
inline constexpr Duration kShellTtl = Duration::Seconds(300);
// stale-while-revalidate window as a fraction of each response's TTL.
// Safe under sketch coherence: a written key is flagged, so SWR only ever
// re-serves content that is merely TTL-expired, not actually changed. The
// ExpiryBook horizon covers TTL + SWR.
inline constexpr double kSwrFraction = 0.5;
// Server-side processing costs (DB access + templating) charged per
// request via HttpResponse::server_time, which the render cache saves: a
// cached render or a 304 costs kRenderCacheHitTime.
inline constexpr Duration kRecordRenderTime = Duration::Millis(8);
inline constexpr Duration kQueryRenderTime = Duration::Millis(25);
inline constexpr Duration kFragmentRenderTime = Duration::Millis(5);
inline constexpr Duration kAssetRenderTime = Duration::Millis(1);
inline constexpr Duration kShellRenderTime = Duration::Millis(15);
inline constexpr Duration kRenderCacheHitTime = Duration::Micros(500);

struct OriginConfig {
  // The polyglot architecture's server cache tier (Redis-style rendered
  // responses keyed by content version, so it can never serve stale).
  // 0 disables.
  size_t render_cache_entries = 100000;
};

struct OriginStats {
  uint64_t requests = 0;
  uint64_t not_modified = 0;  // 304s served
  uint64_t record_requests = 0;
  uint64_t query_requests = 0;
  uint64_t fragment_requests = 0;
  uint64_t asset_requests = 0;
  uint64_t sketch_requests = 0;
  uint64_t rejected_unavailable = 0;
  uint64_t render_cache_hits = 0;
  uint64_t render_cache_misses = 0;
  // Total processing time spent (and avoided) rendering.
  int64_t render_time_us = 0;
  int64_t render_time_saved_us = 0;
};

class OriginServer {
 public:
  // `publication` may be null (baselines without coherence); when set it is
  // the coherence tier's sketch-publication handle and backs the /sketch
  // route. `ttl_policy` is owned by the caller and must outlive the server.
  OriginServer(const OriginConfig& config, sim::SimClock* clock,
               storage::ObjectStore* store, ttl::TtlPolicy* ttl_policy,
               coherence::SketchPublication* publication);

  // Registers a query whose result is exposed at /api/queries/<query.id>
  // and invalidated by the pipeline: its one registration.
  Status RegisterQuery(invalidation::Query query);

  // Hands each write's record key and matched query ids to `pipeline`
  // (not owned; null for no invalidation) once the results are updated.
  void SetPipeline(invalidation::InvalidationPipeline* pipeline) {
    pipeline_ = pipeline;
  }

  // Observes every version a write creates, as (cache key, new version):
  // each bumped query result, then, after the pipeline, the record. The
  // staleness tracker hangs off this to date both.
  using VersionListener =
      std::function<void(const std::string& cache_key, uint64_t version)>;
  void SetVersionListener(VersionListener listener) {
    version_listener_ = std::move(listener);
  }

  // Serves one request on the simulated clock.
  http::HttpResponse Handle(const http::HttpRequest& request);

  // Fault injection: while unavailable, every request returns 503.
  void set_available(bool available) { available_ = available; }
  bool available() const { return available_; }

  invalidation::ExpiryBook& expiry_book() { return expiry_book_; }
  const OriginStats& stats() const { return stats_; }

 private:
  struct MaterializedQuery {
    // One predicate-matching record. `fragment` is its Render(), memoized
    // the first time a listing renders the entry; a write erases the
    // entry and inserts a fresh one, so a fragment is always that of the
    // record's current version.
    struct Member {
      storage::FieldValue sort_value;
      std::string id;
      http::Body fragment;
    };

    invalidation::Query query;
    // All predicate-matching records, ascending by (sort value, id); for
    // unordered queries the sort value is a constant and id order rules.
    // Each entry is built from the record's latest image.
    std::vector<Member> members;
    uint64_t result_version = 1;

    storage::FieldValue SortValueOf(const storage::Record& record) const;
    // Where the entry built from `image` is, or belongs, in members.
    size_t PositionOf(const storage::Record& image) const;
    // Inserts the entry of `record`; returns its position.
    size_t Insert(const storage::Record& record);
    // The visible slice (ordering direction + limit applied) holds the
    // first `limit` members, or the last `limit` read backwards when
    // descending; all of them when `limit` is 0.
    bool IsVisible(size_t position) const;
  };

  void OnWrite(const storage::Record* before, const storage::Record& after);

  http::HttpResponse ServeRecord(const http::HttpRequest& request,
                                 std::string_view id);
  http::HttpResponse ServeQuery(const http::HttpRequest& request,
                                std::string_view query_id);
  http::HttpResponse ServeFragment(const http::HttpRequest& request,
                                   std::string_view block_id);
  http::HttpResponse ServeAsset(const http::HttpRequest& request,
                                std::string_view name);
  http::HttpResponse ServeShell(const http::HttpRequest& request,
                                std::string_view name);
  http::HttpResponse ServeSketch();

  // Applies TTL policy + ETag + expiry-book accounting, honouring
  // If-None-Match: a matching validator gets its 304 (charged the
  // validation cost) before anything is rendered. Otherwise the body and
  // header block come from CachedRender. `body_version` feeds the ETag,
  // the staleness checks and the render cache.
  template <typename RenderFn>
  http::HttpResponse Finish(const http::HttpRequest& request,
                            const std::string& key, uint64_t body_version,
                            Duration ttl, Duration render_time,
                            RenderFn&& render);

  // The body of `key` at `version`, with its server time in
  // *server_time: the render cache's stored body (cache-hit cost) when
  // `key` was last rendered at `version`, else render() (full render cost).
  // `headers` holds the response's freshly built header block; the cache
  // keeps it next to the body, and a hit whose stored block has the same
  // entries swaps the stored block in, so every 200 of one version and
  // TTL shares one block. A `no_store` response is rendered on every
  // request and nothing of it is kept; its entry holds only the version,
  // so hit/miss accounting and every charged server time match a cache
  // that stores versions alone.
  template <typename RenderFn>
  http::Body CachedRender(const std::string& key, uint64_t version,
                          Duration render_time, bool no_store,
                          RenderFn&& render, Duration* server_time,
                          http::HeaderMap* headers);

  OriginConfig config_;
  sim::SimClock* clock_;
  storage::ObjectStore* store_;
  ttl::TtlPolicy* ttl_policy_;
  coherence::SketchPublication* publication_;
  bool available_ = true;

  invalidation::QueryMatcher matcher_;
  std::unordered_map<std::string, MaterializedQuery> queries_;
  invalidation::ExpiryBook expiry_book_;
  invalidation::InvalidationPipeline* pipeline_ = nullptr;
  VersionListener version_listener_;
  // Render cache: cache key -> last rendered content version, its body
  // and the header block of the 200 last served with it (both empty for
  // no-store responses). Version-keyed, so it can never serve a stale
  // render; one entry per key, evicted by entry count.
  struct RenderedBody {
    uint64_t version = 0;
    http::Body body;
    http::HeaderMap headers;
  };
  cache::LruCache<RenderedBody> render_cache_;
  OriginStats stats_;
};

}  // namespace speedkit::origin

#endif  // SPEEDKIT_ORIGIN_ORIGIN_SERVER_H_
