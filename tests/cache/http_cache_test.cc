#include "cache/http_cache.h"

#include <gtest/gtest.h>

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
  ASSERT_TRUE(cache.Store("k", Response("max-age=60"), At(0)));
  LookupResult r = cache.Lookup("k", At(30));
  EXPECT_EQ(r.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(r.entry->response.body, "payload");
}

TEST(HttpCacheTest, EntryGoesStaleAtTtl) {
  HttpCache cache(false, 0);
  cache.Store("k", Response("max-age=60"), At(0));
  EXPECT_EQ(cache.Lookup("k", At(59)).outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(cache.Lookup("k", At(60)).outcome, LookupOutcome::kStaleHit);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
}

TEST(HttpCacheTest, AgePropagationUsesOriginRenderTime) {
  // Response rendered at t=0 but stored at t=40 (sat in a CDN): only 20s
  // of its 60s lifetime remain.
  HttpCache cache(false, 0);
  cache.Store("k", Response("max-age=60", /*generated_s=*/0), At(40));
  EXPECT_EQ(cache.Lookup("k", At(55)).outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(cache.Lookup("k", At(61)).outcome, LookupOutcome::kStaleHit);
}

TEST(HttpCacheTest, NoStoreRejected) {
  HttpCache cache(false, 0);
  EXPECT_FALSE(cache.Store("k", Response("no-store"), At(0)));
  EXPECT_EQ(cache.stats().store_rejects, 1u);
  EXPECT_EQ(cache.Lookup("k", At(0)).outcome, LookupOutcome::kMiss);
}

TEST(HttpCacheTest, PrivateRejectedBySharedCacheOnly) {
  HttpCache shared(true, 0);
  HttpCache priv(false, 0);
  EXPECT_FALSE(shared.Store("k", Response("private, max-age=60"), At(0)));
  EXPECT_TRUE(priv.Store("k", Response("private, max-age=60"), At(0)));
}

TEST(HttpCacheTest, SharedCacheUsesSMaxage) {
  HttpCache shared(true, 0);
  HttpCache priv(false, 0);
  http::HttpResponse resp = Response("max-age=10, s-maxage=100");
  shared.Store("k", resp, At(0));
  priv.Store("k", resp, At(0));
  EXPECT_EQ(shared.Lookup("k", At(50)).outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(priv.Lookup("k", At(50)).outcome, LookupOutcome::kStaleHit);
}

TEST(HttpCacheTest, NoCacheEntriesRequireRevalidation) {
  HttpCache cache(false, 0);
  ASSERT_TRUE(cache.Store("k", Response("no-cache, max-age=60"), At(0)));
  // Stored, but never served as fresh.
  EXPECT_EQ(cache.Lookup("k", At(1)).outcome, LookupOutcome::kStaleHit);
}

TEST(HttpCacheTest, RefreshExtendsLifetimeAfter304) {
  HttpCache cache(false, 0);
  cache.Store("k", Response("max-age=60"), At(0));
  ASSERT_EQ(cache.Lookup("k", At(70)).outcome, LookupOutcome::kStaleHit);
  http::CacheControl cc = http::CacheControl::Parse("max-age=60");
  http::HttpResponse nm = http::MakeNotModified("\"v1\"", cc, 1, At(70));
  cache.Refresh("k", nm, At(70));
  LookupResult r = cache.Lookup("k", At(100));
  EXPECT_EQ(r.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(r.entry->response.body, "payload");  // body survives
  EXPECT_EQ(cache.stats().refreshes, 1u);
}

TEST(HttpCacheTest, RefreshClearsNoCacheGate) {
  HttpCache cache(false, 0);
  cache.Store("k", Response("no-cache, max-age=60"), At(0));
  http::CacheControl cc = http::CacheControl::Parse("max-age=60");
  cache.Refresh("k", http::MakeNotModified("\"v1\"", cc, 1, At(5)), At(5));
  EXPECT_EQ(cache.Lookup("k", At(10)).outcome, LookupOutcome::kFreshHit);
}

TEST(HttpCacheTest, RefreshOfMissingKeyIsNoop) {
  HttpCache cache(false, 0);
  http::CacheControl cc;
  cache.Refresh("ghost", http::MakeNotModified("\"v1\"", cc, 1, At(0)), At(0));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HttpCacheTest, PurgeRemovesEntry) {
  HttpCache cache(true, 0);
  cache.Store("k", Response("max-age=60"), At(0));
  EXPECT_TRUE(cache.Purge("k"));
  EXPECT_FALSE(cache.Purge("k"));
  EXPECT_EQ(cache.Lookup("k", At(1)).outcome, LookupOutcome::kMiss);
  EXPECT_EQ(cache.stats().purges, 1u);
}

TEST(HttpCacheTest, ErrorAndEmptyResponsesNotStored) {
  HttpCache cache(false, 0);
  http::HttpResponse err = Response("max-age=60");
  err.status_code = 404;
  EXPECT_FALSE(cache.Store("k", err, At(0)));
  http::HttpResponse empty = Response("max-age=60");
  empty.body = http::Body();
  EXPECT_FALSE(cache.Store("k", empty, At(0)));
}

TEST(HttpCacheTest, CapacityEvictionWorksThroughHttpLayer) {
  HttpCache cache(false, 600);
  cache.Store("a", Response("max-age=60", 0, 1, std::string(200, 'x')), At(0));
  cache.Store("b", Response("max-age=60", 0, 1, std::string(200, 'x')), At(0));
  cache.Store("c", Response("max-age=60", 0, 1, std::string(200, 'x')), At(0));
  EXPECT_LT(cache.size(), 3u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(HttpCacheTest, ZeroTtlEntryIsStoredButStale) {
  HttpCache cache(false, 0);
  ASSERT_TRUE(cache.Store("k", Response("max-age=0"), At(0)));
  EXPECT_EQ(cache.Lookup("k", At(0)).outcome, LookupOutcome::kStaleHit);
}

http::HeaderMap SegHeaders(std::string_view segment) {
  http::HeaderMap headers;
  headers.Set("X-Segment", segment);
  return headers;
}

http::HttpResponse VaryingResponse(std::string body) {
  http::HttpResponse resp = Response("max-age=60", 0, 1, std::move(body));
  resp.headers.Set("Vary", "X-Segment");
  return resp;
}

TEST(HttpCacheTest, VaryingVariantsNeverCrossServe) {
  HttpCache cache(true, 0);
  ASSERT_TRUE(cache.Store("k", SegHeaders("A"), VaryingResponse("for-A"), At(0)));
  ASSERT_TRUE(cache.Store("k", SegHeaders("B"), VaryingResponse("for-B"), At(0)));

  LookupResult a = cache.Lookup("k", SegHeaders("A"), At(1));
  ASSERT_EQ(a.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(a.entry->response.body, "for-A");
  LookupResult b = cache.Lookup("k", SegHeaders("B"), At(1));
  ASSERT_EQ(b.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(b.entry->response.body, "for-B");
  // A segment that never populated its variant misses — it must not be
  // handed another segment's copy.
  EXPECT_EQ(cache.Lookup("k", SegHeaders("C"), At(1)).outcome,
            LookupOutcome::kMiss);
}

TEST(HttpCacheTest, VaryStarIsUncacheable) {
  HttpCache cache(true, 0);
  http::HttpResponse resp = Response("max-age=60");
  resp.headers.Set("Vary", "*");
  EXPECT_FALSE(cache.Store("k", SegHeaders("A"), resp, At(0)));
  EXPECT_EQ(cache.stats().store_rejects, 1u);
  EXPECT_EQ(cache.Lookup("k", SegHeaders("A"), At(0)).outcome,
            LookupOutcome::kMiss);
}

TEST(HttpCacheTest, PurgeRemovesAllVariants) {
  HttpCache cache(true, 0);
  cache.Store("k", SegHeaders("A"), VaryingResponse("for-A"), At(0));
  cache.Store("k", SegHeaders("B"), VaryingResponse("for-B"), At(0));
  EXPECT_TRUE(cache.Purge("k"));
  EXPECT_EQ(cache.Lookup("k", SegHeaders("A"), At(1)).outcome,
            LookupOutcome::kMiss);
  EXPECT_EQ(cache.Lookup("k", SegHeaders("B"), At(1)).outcome,
            LookupOutcome::kMiss);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HttpCacheTest, HeaderlessLookupOfVaryingResourceMisses) {
  HttpCache cache(true, 0);
  cache.Store("k", SegHeaders("A"), VaryingResponse("for-A"), At(0));
  // A request without the Vary'd header matches no stored variant.
  EXPECT_EQ(cache.Lookup("k", At(1)).outcome, LookupOutcome::kMiss);
}

}  // namespace
}  // namespace speedkit::cache
