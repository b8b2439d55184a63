// Cold-client spill codec: HttpCache::Freeze/Thaw must be a lossless
// round trip — contents, Vary variants, stats, eviction history AND the
// LRU recency order, so a thawed cache makes the exact same decisions as
// its never-frozen twin forever after. The fleet depends on this being
// behavior-neutral (fig_memscale gates it end-to-end; these tests pin
// the codec directly).
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/http_cache.h"

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

TEST(HttpCacheFreezeTest, RoundTripPreservesContentsAndStats) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"), At(0));
  cache.Store("b", Response("max-age=5", 0, 2, "body-b"), At(0));
  cache.Store("c", Response("no-cache, max-age=60", 0, 3, "body-c"), At(0));
  cache.Lookup("a", At(1));          // fresh hit
  cache.Lookup("b", At(10));         // stale hit
  cache.Lookup("missing", At(1));    // miss
  const HttpCacheStats before = cache.stats();

  std::string blob = cache.Freeze();
  HttpCache thawed(false, 0);
  ASSERT_TRUE(thawed.Thaw(blob));

  EXPECT_EQ(thawed.size(), cache.size());
  EXPECT_EQ(thawed.used_bytes(), cache.used_bytes());
  EXPECT_EQ(thawed.stats().fresh_hits, before.fresh_hits);
  EXPECT_EQ(thawed.stats().stale_hits, before.stale_hits);
  EXPECT_EQ(thawed.stats().misses, before.misses);
  EXPECT_EQ(thawed.stats().stores, before.stores);

  LookupResult a = thawed.Lookup("a", At(1));
  ASSERT_EQ(a.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(a.entry->response.body, "body-a");
  EXPECT_EQ(a.entry->response.object_version, 1u);
  EXPECT_EQ(thawed.Lookup("b", At(10)).outcome, LookupOutcome::kStaleHit);
  // no-cache survives: entry present but only usable after revalidation.
  LookupResult c = thawed.Lookup("c", At(1));
  EXPECT_EQ(c.outcome, LookupOutcome::kStaleHit);
}

// The decisive property: after thawing, capacity pressure evicts the same
// victim in the same order as in a never-frozen twin — the blob encodes
// recency, not just membership.
TEST(HttpCacheFreezeTest, RecencyOrderSurvivesSoEvictionsMatchTwin) {
  // Capacity for exactly three of these (equal-sized) entries, measured
  // rather than hardcoded so the test tracks the entry-size accounting.
  size_t capacity = [] {
    HttpCache probe(false, 0);
    probe.Store("a", Response("max-age=60", 0, 1, "body-a"), At(0));
    probe.Store("b", Response("max-age=60", 0, 2, "body-b"), At(0));
    probe.Store("c", Response("max-age=60", 0, 3, "body-c"), At(0));
    return probe.used_bytes();
  }();
  auto run = [capacity](bool freeze_midway) {
    HttpCache cache(false, capacity);
    cache.Store("a", Response("max-age=60", 0, 1, "body-a"), At(0));
    cache.Store("b", Response("max-age=60", 0, 2, "body-b"), At(0));
    cache.Store("c", Response("max-age=60", 0, 3, "body-c"), At(0));
    cache.Lookup("a", At(1));  // a is now MRU; b is LRU
    if (freeze_midway) {
      std::string blob = cache.Freeze();
      cache.Clear();
      EXPECT_TRUE(cache.Thaw(blob));
    }
    cache.Store("d", Response("max-age=60", 0, 4, "body-d"), At(2));
    std::string surviving;
    for (const char* key : {"a", "b", "c", "d"}) {
      if (cache.Lookup(key, At(3)).outcome == LookupOutcome::kFreshHit) {
        surviving += key;
      }
    }
    return surviving + "/" + std::to_string(cache.evictions());
  };
  EXPECT_EQ(run(/*freeze_midway=*/true), run(/*freeze_midway=*/false));
  EXPECT_EQ(run(/*freeze_midway=*/false), "acd/1");  // b was LRU
}

TEST(HttpCacheFreezeTest, VaryVariantsSurvive) {
  HttpCache cache(false, 0);
  http::HttpResponse seg_a = Response("max-age=60", 0, 1, "segment-a");
  seg_a.headers.Set("Vary", "X-Segment");
  http::HttpResponse seg_b = Response("max-age=60", 0, 2, "segment-b");
  seg_b.headers.Set("Vary", "X-Segment");
  http::HeaderMap req_a;
  req_a.Set("X-Segment", "a");
  http::HeaderMap req_b;
  req_b.Set("X-Segment", "b");
  ASSERT_TRUE(cache.Store("k", req_a, seg_a, At(0)));
  ASSERT_TRUE(cache.Store("k", req_b, seg_b, At(0)));

  HttpCache thawed(false, 0);
  ASSERT_TRUE(thawed.Thaw(cache.Freeze()));
  LookupResult a = thawed.Lookup("k", req_a, At(1));
  ASSERT_EQ(a.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(a.entry->response.body, "segment-a");
  LookupResult b = thawed.Lookup("k", req_b, At(1));
  ASSERT_EQ(b.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(b.entry->response.body, "segment-b");
  // A third variant can still be stored and purged through the thawed
  // Vary bookkeeping.
  EXPECT_TRUE(thawed.Purge("k"));
  EXPECT_EQ(thawed.Lookup("k", req_a, At(1)).outcome, LookupOutcome::kMiss);
}

// The variant-name section is presence-gated: a never-varying cache —
// the overwhelmingly common case in a spilled fleet — spends one byte on
// it instead of a dangling empty count. Pinned by exact header size so a
// codec change that reintroduces the empty section fails here.
TEST(HttpCacheFreezeTest, EmptyVarySectionIsOmittedFromBlob) {
  HttpCache empty(false, 0);
  // magic(4) + shared(1) + capacity + 9 stat counters (10 x U64 = 80) +
  // vary presence byte(1) + entry count(4).
  EXPECT_EQ(empty.Freeze().size(), 90u);

  // And the lean blob still round-trips losslessly.
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"), At(0));
  HttpCache thawed(false, 0);
  ASSERT_TRUE(thawed.Thaw(cache.Freeze()));
  LookupResult a = thawed.Lookup("a", At(1));
  ASSERT_EQ(a.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(a.entry->response.body, "body-a");
}

// Eviction removes variant entries but leaves the vary_names_ mapping
// behind in memory; Freeze must not spill that dead bookkeeping. A fleet
// client that varied once and then churned past it freezes as lean as one
// that never varied at all.
TEST(HttpCacheFreezeTest, EvictedVaryMappingsAreDroppedAtFreeze) {
  http::HttpResponse varied = Response("max-age=60", 0, 1, "segment-a");
  varied.headers.Set("Vary", "X-Segment");
  http::HeaderMap req;
  req.Set("X-Segment", "a");

  // Capacity that holds either entry alone but not both, so the second
  // store evicts the variant and orphans its vary mapping.
  size_t total = [&] {
    HttpCache probe(false, 0);
    probe.Store("k", req, varied, At(0));
    probe.Store("plain", Response("max-age=60", 0, 2, "body-p"), At(0));
    return probe.used_bytes();
  }();
  HttpCache cache(false, total - 1);
  ASSERT_TRUE(cache.Store("k", req, varied, At(0)));
  ASSERT_TRUE(
      cache.Store("plain", Response("max-age=60", 0, 2, "body-p"), At(1)));
  ASSERT_EQ(cache.evictions(), 1u);

  std::string blob = cache.Freeze();
  // The dead mapping (and its vary header name) must not appear: the
  // variant entry is gone, so the only place "X-Segment" could survive is
  // the vary-name section this test guards.
  EXPECT_EQ(blob.find("X-Segment"), std::string::npos);

  HttpCache thawed(false, total - 1);
  ASSERT_TRUE(thawed.Thaw(blob));
  EXPECT_EQ(thawed.size(), 1u);
  EXPECT_EQ(thawed.Lookup("plain", At(1)).outcome, LookupOutcome::kFreshHit);
}

// Live vary mappings freeze in sorted key order, so two caches holding the
// same contents produce byte-identical blobs regardless of the (unordered)
// in-memory map's insertion history.
TEST(HttpCacheFreezeTest, VarySectionIsCanonicallyOrdered) {
  auto store_varied = [](HttpCache* cache, const std::string& key,
                         uint64_t version) {
    http::HttpResponse resp = Response("max-age=60", 0, version, "seg");
    resp.headers.Set("Vary", "X-Segment");
    http::HeaderMap req;
    req.Set("X-Segment", "a");
    ASSERT_TRUE(cache->Store(key, req, resp, At(0)));
  };
  http::HeaderMap req;
  req.Set("X-Segment", "a");
  HttpCache first(false, 0);
  store_varied(&first, "alpha", 1);
  store_varied(&first, "beta", 2);
  first.Lookup("alpha", req, At(1));  // recency: beta LRU, alpha MRU

  HttpCache second(false, 0);
  store_varied(&second, "beta", 2);  // reversed vary-map insertion order
  store_varied(&second, "alpha", 1);
  second.Lookup("alpha", req, At(1));  // same recency chain as `first`

  EXPECT_EQ(first.Freeze(), second.Freeze());
}

TEST(HttpCacheFreezeTest, CorruptBlobFailsClosedToEmpty) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60"), At(0));
  std::string blob = cache.Freeze();

  HttpCache victim(false, 0);
  victim.Store("keep", Response("max-age=60"), At(0));
  EXPECT_FALSE(victim.Thaw(blob.substr(0, blob.size() / 2)));  // truncated
  EXPECT_EQ(victim.size(), 0u);  // cleared, not half-restored

  std::string bad_magic = blob;
  bad_magic[0] = static_cast<char>(bad_magic[0] + 1);
  EXPECT_FALSE(victim.Thaw(bad_magic));
  EXPECT_TRUE(victim.Thaw(blob));  // the pristine blob still works
  EXPECT_EQ(victim.size(), 1u);
}

// The Vary-name count is read from the blob. A corrupt count must fail the
// thaw closed, not size an allocation (it used to throw std::bad_alloc).
TEST(HttpCacheFreezeTest, CorruptVaryNameCountFailsClosedToEmpty) {
  http::HttpResponse varied = Response("max-age=60", 0, 1, "segment-a");
  varied.headers.Set("Vary", "X-Segment");
  http::HeaderMap req;
  req.Set("X-Segment", "a");
  HttpCache cache(false, 0);
  ASSERT_TRUE(cache.Store("k", req, varied, At(0)));
  std::string blob = cache.Freeze();

  // magic(4) + shared(1) + capacity and 9 counters (80) + Vary presence(1)
  // + mapping count(4) + the key "k" (4 + 1), then its name count.
  const size_t name_count_at = 4 + 1 + 80 + 1 + 4 + 4 + 1;
  ASSERT_GT(blob.size(), name_count_at + 4);
  uint32_t name_count = 0;
  std::memcpy(&name_count, blob.data() + name_count_at, sizeof(name_count));
  ASSERT_EQ(name_count, 1u);
  name_count = 0xFFFFFFFFu;
  std::memcpy(blob.data() + name_count_at, &name_count, sizeof(name_count));

  HttpCache victim(false, 0);
  victim.Store("keep", Response("max-age=60"), At(0));
  EXPECT_FALSE(victim.Thaw(blob));
  EXPECT_EQ(victim.size(), 0u);
  EXPECT_EQ(victim.Lookup("k", req, At(1)).outcome, LookupOutcome::kMiss);
}

// With handle lists, the blob carries body and header-block indexes
// instead of bytes: the thawed cache holds the very buffers and blocks the
// frozen one held.
TEST(HttpCacheFreezeTest, HandleBlobKeepsBodiesShared) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, std::string(500, 'a')), At(0));
  cache.Store("b", Response("max-age=60", 0, 2, std::string(500, 'b')), At(0));
  cache.Lookup("a", At(1));
  const http::HttpResponse held_a = cache.Lookup("a", At(1)).entry->response;

  FrozenHandles handles;
  std::string blob = cache.Freeze(&handles);
  EXPECT_EQ(handles.bodies.size(), 2u);
  EXPECT_EQ(handles.headers.size(), 2u);
  // Same layout, minus the payloads: each entry's two indexes take the
  // place of its length-prefixed body and its header count and fields.
  size_t payload = 0;
  for (size_t i = 0; i < 2; ++i) {
    payload += handles.bodies[i].size();
    for (const auto& [name, value] : handles.headers[i]) {
      payload += 8 + name.size() + value.size();
    }
  }
  EXPECT_EQ(cache.Freeze().size(), blob.size() + payload);

  HttpCache thawed(false, 0);
  ASSERT_TRUE(thawed.Thaw(blob, &handles));
  EXPECT_EQ(thawed.used_bytes(), cache.used_bytes());
  EXPECT_EQ(thawed.stats().fresh_hits, cache.stats().fresh_hits);
  LookupResult a = thawed.Lookup("a", At(2));
  ASSERT_EQ(a.outcome, LookupOutcome::kFreshHit);
  EXPECT_TRUE(a.entry->response.body.SharesBufferWith(held_a.body));
  EXPECT_TRUE(a.entry->response.headers.SharesStorageWith(held_a.headers));
  EXPECT_EQ(thawed.Lookup("b", At(2)).entry->response.body,
            std::string(500, 'b'));
  EXPECT_EQ(thawed.Lookup("b", At(2)).entry->response.ETag(), "\"v2\"");

  // The two forms never stand in for each other.
  EXPECT_FALSE(thawed.Thaw(blob));
  EXPECT_FALSE(thawed.Thaw(cache.Freeze(), &handles));
}

// A joined body (a query listing over shared record fragments) freezes
// to the bytes of its flat twin: the self-contained blob is byte-identical
// and thaws to a flat body with equal bytes. The handle form keeps the
// joined body itself.
TEST(HttpCacheFreezeTest, JoinedBodyFreezesLikeItsFlatTwin) {
  http::Body joined = http::Body::Join(
      "{\"results\":[",
      {http::Body(std::string(40, 'a')), http::Body(std::string(30, 'b')),
       http::Body(std::string(20, 'c'))},
      ",", "]}");
  auto stored = [](http::Body body) {
    http::HttpResponse resp = Response("max-age=60");
    resp.body = std::move(body);
    return resp;
  };
  HttpCache joined_cache(false, 0);
  joined_cache.Store("q", stored(joined), At(0));
  HttpCache flat_cache(false, 0);
  flat_cache.Store("q", stored(http::Body(joined.ToString())), At(0));

  std::string blob = joined_cache.Freeze();
  EXPECT_EQ(blob, flat_cache.Freeze());
  HttpCache thawed(false, 0);
  ASSERT_TRUE(thawed.Thaw(blob));
  const http::Body& body = thawed.Lookup("q", At(1)).entry->response.body;
  EXPECT_EQ(body, joined);
  EXPECT_EQ(body.ToString(), joined.ToString());
  EXPECT_FALSE(body.SharesBufferWith(joined));

  FrozenHandles handles;
  std::string handle_blob = joined_cache.Freeze(&handles);
  HttpCache spilled(false, 0);
  ASSERT_TRUE(spilled.Thaw(handle_blob, &handles));
  EXPECT_TRUE(spilled.Lookup("q", At(1)).entry->response.body.SharesBufferWith(
      joined));
}

TEST(HttpCacheFreezeTest, OutOfRangeBodyIndexFailsClosedToEmpty) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"), At(0));
  cache.Store("b", Response("max-age=60", 0, 2, "body-b"), At(0));
  FrozenHandles handles;
  std::string blob = cache.Freeze(&handles);
  handles.bodies.pop_back();  // the blob's last index now points past it

  HttpCache victim(false, 0);
  victim.Store("keep", Response("max-age=60"), At(0));
  EXPECT_FALSE(victim.Thaw(blob, &handles));
  EXPECT_EQ(victim.size(), 0u);
  EXPECT_EQ(victim.Lookup("a", At(1)).outcome, LookupOutcome::kMiss);
}

TEST(HttpCacheFreezeTest, OutOfRangeHeaderIndexFailsClosedToEmpty) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"), At(0));
  cache.Store("b", Response("max-age=60", 0, 2, "body-b"), At(0));
  FrozenHandles handles;
  std::string blob = cache.Freeze(&handles);
  handles.headers.pop_back();  // the last header index now points past it

  HttpCache victim(false, 0);
  victim.Store("keep", Response("max-age=60"), At(0));
  EXPECT_FALSE(victim.Thaw(blob, &handles));
  EXPECT_EQ(victim.size(), 0u);
  EXPECT_EQ(victim.Lookup("a", At(1)).outcome, LookupOutcome::kMiss);
}

TEST(HttpCacheFreezeTest, SharedFlagAndCapacityMismatchRejected) {
  HttpCache private_cache(false, 1024);
  private_cache.Store("a", Response("max-age=60"), At(0));
  std::string blob = private_cache.Freeze();
  HttpCache shared_cache(true, 1024);
  EXPECT_FALSE(shared_cache.Thaw(blob));
  HttpCache other_capacity(false, 2048);
  EXPECT_FALSE(other_capacity.Thaw(blob));
}

}  // namespace
}  // namespace speedkit::cache
