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

// A new Vary set makes the old variant keys unreachable: they are erased
// at once and stop counting against the budget. Another varying resource
// whose key shares the prefix keeps its variants.
TEST(HttpCacheTest, ChangedVarySetErasesOldVariants) {
  HttpCache cache(true, 0);
  ASSERT_TRUE(cache.Store("k-other", SegHeaders("A"),
                          VaryingResponse("other-A"), At(0)));
  const size_t other_bytes = cache.used_bytes();
  ASSERT_TRUE(cache.Store("k", SegHeaders("A"), VaryingResponse("for-A"), At(0)));
  ASSERT_TRUE(cache.Store("k", SegHeaders("B"), VaryingResponse("for-B"), At(0)));
  ASSERT_EQ(cache.size(), 3u);

  http::HttpResponse by_language = Response("max-age=60", 0, 2, "for-en");
  by_language.headers.Set("Vary", "Accept-Language");
  http::HeaderMap english;
  english.Set("Accept-Language", "en");
  const size_t language_bytes = [&] {
    HttpCache probe(true, 0);
    probe.Store("k", english, by_language, At(1));
    return probe.used_bytes();
  }();
  ASSERT_TRUE(cache.Store("k", english, by_language, At(1)));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.used_bytes(), other_bytes + language_bytes);
  LookupResult en = cache.Lookup("k", english, At(2));
  ASSERT_EQ(en.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(en.entry->response.body, "for-en");
  LookupResult other = cache.Lookup("k-other", SegHeaders("A"), At(2));
  ASSERT_EQ(other.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(other.entry->response.body, "other-A");
}

// A plain store of a resource that used to vary retires its variants and
// its Vary mapping: the plain copy then serves every request, and a
// freeze carries no Vary section, only its presence byte.
TEST(HttpCacheTest, ResourceThatStopsVaryingRetiresVariantsAndMapping) {
  HttpCache cache(false, 0);
  ASSERT_TRUE(cache.Store("k", SegHeaders("A"), VaryingResponse("for-A"), At(0)));
  ASSERT_TRUE(cache.Store("k", SegHeaders("B"), VaryingResponse("for-B"), At(0)));
  const http::HttpResponse plain = Response("max-age=60", 0, 2, "plain");
  ASSERT_TRUE(cache.Store("k", SegHeaders("A"), plain, At(1)));

  EXPECT_EQ(cache.size(), 1u);
  LookupResult b = cache.Lookup("k", SegHeaders("B"), At(2));
  ASSERT_EQ(b.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(b.entry->response.body, "plain");
  EXPECT_EQ(cache.Lookup("k", At(2)).outcome, LookupOutcome::kFreshHit);

  HttpCache never_varied(false, 0);
  ASSERT_TRUE(never_varied.Store("k", plain, At(1)));
  const std::string blob = cache.Freeze();
  EXPECT_EQ(blob.size(), never_varied.Freeze().size());
  // magic(4) + shared(1) + capacity and 9 counters (80), then the Vary
  // presence byte.
  ASSERT_GT(blob.size(), 85u);
  EXPECT_EQ(blob[85], '\0');
  EXPECT_EQ(blob.find("X-Segment"), std::string::npos);
}

// Purge, Refresh and headerless Lookup on the plain path: in a cache that
// never saw Vary, and in caches whose last Vary mapping was retired by a
// purge or by a plain store of the same key.
TEST(HttpCacheTest, PlainPathWorksWithAndWithoutRetiredVaryMappings) {
  auto exercise = [](HttpCache& cache) {
    ASSERT_TRUE(cache.Store("a", Response("max-age=10", 0, 1, "body-a"), At(0)));
    ASSERT_TRUE(cache.Store("b", Response("max-age=10", 0, 2, "body-b"), At(0)));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.Lookup("a", At(20)).outcome, LookupOutcome::kStaleHit);
    http::CacheControl cc = http::CacheControl::Parse("max-age=60");
    cache.Refresh("a", http::MakeNotModified("\"v1\"", cc, 1, At(20)), At(20));
    LookupResult a = cache.Lookup("a", At(30));
    ASSERT_EQ(a.outcome, LookupOutcome::kFreshHit);
    EXPECT_EQ(a.entry->response.body, "body-a");
    EXPECT_TRUE(cache.Purge("b"));
    EXPECT_FALSE(cache.Purge("b"));
    EXPECT_EQ(cache.Lookup("b", At(30)).outcome, LookupOutcome::kMiss);
    EXPECT_EQ(cache.size(), 1u);
  };

  HttpCache never_varied(false, 0);
  exercise(never_varied);
  EXPECT_EQ(never_varied.stats().refreshes, 1u);
  EXPECT_EQ(never_varied.stats().purges, 1u);

  HttpCache purged(false, 0);
  ASSERT_TRUE(purged.Store("v", SegHeaders("A"), VaryingResponse("for-A"), At(0)));
  ASSERT_TRUE(purged.Purge("v"));
  ASSERT_EQ(purged.size(), 0u);
  exercise(purged);
  EXPECT_EQ(purged.stats().purges, 2u);

  HttpCache replaced(false, 0);
  ASSERT_TRUE(replaced.Store("a", SegHeaders("A"), VaryingResponse("for-A"), At(0)));
  exercise(replaced);  // its first Store of "a" retires the mapping
  LookupResult plain = replaced.Lookup("a", SegHeaders("B"), At(30));
  ASSERT_EQ(plain.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(plain.entry->response.body, "body-a");
}

}  // namespace
}  // namespace speedkit::cache
