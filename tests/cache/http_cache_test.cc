#include "cache/http_cache.h"

#include <gtest/gtest.h>

#include <string>

namespace speedkit::cache {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

http::HttpResponse Response(std::string cc_value, double generated_s = 0,
                            uint64_t version = 1,
                            std::string body = "payload") {
  http::HttpResponse resp;
  resp.status_code = 200;
  resp.body = std::move(body);
  resp.headers.Set("Cache-Control", cc_value);
  resp.SetETag("\"v" + std::to_string(version) + "\"");
  resp.object_version = version;
  resp.generated_at = At(generated_s);
  return resp;
}

TEST(HttpCacheTest, MissOnEmpty) {
  HttpCache cache(false, 0);
  EXPECT_EQ(cache.Lookup("k", At(0)).outcome, LookupOutcome::kMiss);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(HttpCacheTest, StoreAndFreshHit) {
  HttpCache cache(false, 0);
  ASSERT_TRUE(cache.Store("k", Response("max-age=60")));
  LookupResult r = cache.Lookup("k", At(30));
  EXPECT_EQ(r.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(r.entry->response.body, "payload");
}

TEST(HttpCacheTest, EntryGoesStaleAtTtl) {
  HttpCache cache(false, 0);
  cache.Store("k", Response("max-age=60"));
  EXPECT_EQ(cache.Lookup("k", At(59)).outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(cache.Lookup("k", At(60)).outcome, LookupOutcome::kStaleHit);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
}

TEST(HttpCacheTest, AgePropagationUsesOriginRenderTime) {
  // Response rendered at t=0 but stored at t=40 (sat in a CDN): only 20s
  // of its 60s lifetime remain.
  HttpCache cache(false, 0);
  cache.Store("k", Response("max-age=60", /*generated_s=*/0));
  EXPECT_EQ(cache.Lookup("k", At(55)).outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(cache.Lookup("k", At(61)).outcome, LookupOutcome::kStaleHit);
}

TEST(HttpCacheTest, NoStoreRejected) {
  HttpCache cache(false, 0);
  EXPECT_FALSE(cache.Store("k", Response("no-store")));
  EXPECT_EQ(cache.stats().store_rejects, 1u);
  EXPECT_EQ(cache.Lookup("k", At(0)).outcome, LookupOutcome::kMiss);
}

TEST(HttpCacheTest, PrivateRejectedBySharedCacheOnly) {
  HttpCache shared(true, 0);
  HttpCache priv(false, 0);
  EXPECT_FALSE(shared.Store("k", Response("private, max-age=60")));
  EXPECT_TRUE(priv.Store("k", Response("private, max-age=60")));
}

TEST(HttpCacheTest, SharedCacheUsesSMaxage) {
  HttpCache shared(true, 0);
  HttpCache priv(false, 0);
  http::HttpResponse resp = Response("max-age=10, s-maxage=100");
  shared.Store("k", resp);
  priv.Store("k", resp);
  EXPECT_EQ(shared.Lookup("k", At(50)).outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(priv.Lookup("k", At(50)).outcome, LookupOutcome::kStaleHit);
}

TEST(HttpCacheTest, NoCacheEntriesRequireRevalidation) {
  HttpCache cache(false, 0);
  ASSERT_TRUE(cache.Store("k", Response("no-cache, max-age=60")));
  // Stored, but never served as fresh.
  EXPECT_EQ(cache.Lookup("k", At(1)).outcome, LookupOutcome::kStaleHit);
}

TEST(HttpCacheTest, RefreshExtendsLifetimeAfter304) {
  HttpCache cache(false, 0);
  cache.Store("k", Response("max-age=60"));
  ASSERT_EQ(cache.Lookup("k", At(70)).outcome, LookupOutcome::kStaleHit);
  http::CacheControl cc = http::CacheControl::Parse("max-age=60");
  http::HttpResponse nm = http::MakeNotModified("\"v1\"", cc, 1, At(70));
  cache.Refresh("k", nm);
  LookupResult r = cache.Lookup("k", At(100));
  EXPECT_EQ(r.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(r.entry->response.body, "payload");  // body survives
  EXPECT_EQ(cache.stats().refreshes, 1u);
}

TEST(HttpCacheTest, RefreshClearsNoCacheGate) {
  HttpCache cache(false, 0);
  cache.Store("k", Response("no-cache, max-age=60"));
  http::CacheControl cc = http::CacheControl::Parse("max-age=60");
  cache.Refresh("k", http::MakeNotModified("\"v1\"", cc, 1, At(5)));
  EXPECT_EQ(cache.Lookup("k", At(10)).outcome, LookupOutcome::kFreshHit);
}

TEST(HttpCacheTest, RefreshOfMissingKeyIsNoop) {
  HttpCache cache(false, 0);
  http::CacheControl cc;
  cache.Refresh("ghost", http::MakeNotModified("\"v1\"", cc, 1, At(0)));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HttpCacheTest, PurgeRemovesEntry) {
  HttpCache cache(true, 0);
  cache.Store("k", Response("max-age=60"));
  EXPECT_TRUE(cache.Purge("k"));
  EXPECT_FALSE(cache.Purge("k"));
  EXPECT_EQ(cache.Lookup("k", At(1)).outcome, LookupOutcome::kMiss);
  EXPECT_EQ(cache.stats().purges, 1u);
}

TEST(HttpCacheTest, ErrorAndEmptyResponsesNotStored) {
  HttpCache cache(false, 0);
  http::HttpResponse err = Response("max-age=60");
  err.status_code = 404;
  EXPECT_FALSE(cache.Store("k", err));
  http::HttpResponse empty = Response("max-age=60");
  empty.body = http::Body();
  EXPECT_FALSE(cache.Store("k", empty));
}

TEST(HttpCacheTest, CapacityEvictionWorksThroughHttpLayer) {
  HttpCache cache(false, 600);
  cache.Store("a", Response("max-age=60", 0, 1, std::string(200, 'x')));
  cache.Store("b", Response("max-age=60", 0, 1, std::string(200, 'x')));
  cache.Store("c", Response("max-age=60", 0, 1, std::string(200, 'x')));
  EXPECT_LT(cache.size(), 3u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(HttpCacheTest, ZeroTtlEntryIsStoredButStale) {
  HttpCache cache(false, 0);
  ASSERT_TRUE(cache.Store("k", Response("max-age=0")));
  EXPECT_EQ(cache.Lookup("k", At(0)).outcome, LookupOutcome::kStaleHit);
}

// The cache keys on the URL alone, so a response that varies on request
// headers is refused, whatever it varies on: storing it would hand one
// request's copy to every other request for the URL. A copy already
// stored under the key is left in place and keeps serving.
TEST(HttpCacheTest, VaryingResponsesAreNotStored) {
  for (bool shared : {false, true}) {
    HttpCache cache(shared, 0);
    ASSERT_TRUE(cache.Store("k", Response("max-age=60", 0, 1, "plain")));
    for (const char* vary : {"X-Segment", "*"}) {
      http::HttpResponse varying = Response("max-age=60", 1, 2, "varying");
      varying.headers.Set("Vary", vary);
      EXPECT_FALSE(cache.Store("k", varying)) << vary;
      EXPECT_FALSE(cache.Store("fresh-key", varying)) << vary;
    }
    EXPECT_EQ(cache.stats().store_rejects, 4u);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.size(), 1u);
    LookupResult kept = cache.Lookup("k", At(2));
    ASSERT_EQ(kept.outcome, LookupOutcome::kFreshHit);
    EXPECT_EQ(kept.entry->response.body, "plain");
    EXPECT_EQ(cache.Lookup("fresh-key", At(2)).outcome, LookupOutcome::kMiss);
  }
}

}  // namespace
}  // namespace speedkit::cache
