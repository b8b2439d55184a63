// Cold-client spill codec: HttpCache::Freeze/Thaw must be a lossless
// round trip — contents, stats, eviction history AND the LRU recency
// order, so a thawed cache makes the exact same decisions as its
// never-frozen twin forever after. The fleet depends on this being
// behavior-neutral (fig_memscale gates it end-to-end; these tests pin
// the codec directly).
#include <cstdint>
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
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"));
  cache.Store("b", Response("max-age=5", 0, 2, "body-b"));
  cache.Store("c", Response("no-cache, max-age=60", 0, 3, "body-c"));
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
    probe.Store("a", Response("max-age=60", 0, 1, "body-a"));
    probe.Store("b", Response("max-age=60", 0, 2, "body-b"));
    probe.Store("c", Response("max-age=60", 0, 3, "body-c"));
    return probe.used_bytes();
  }();
  auto run = [capacity](bool freeze_midway) {
    HttpCache cache(false, capacity);
    cache.Store("a", Response("max-age=60", 0, 1, "body-a"));
    cache.Store("b", Response("max-age=60", 0, 2, "body-b"));
    cache.Store("c", Response("max-age=60", 0, 3, "body-c"));
    cache.Lookup("a", At(1));  // a is now MRU; b is LRU
    if (freeze_midway) {
      std::string blob = cache.Freeze();
      cache.Clear();
      EXPECT_TRUE(cache.Thaw(blob));
    }
    cache.Store("d", Response("max-age=60", 0, 4, "body-d"));
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

// The caches store no varying response, so a blob carries no Vary section,
// not even a presence byte. Pinned by exact size, so a codec change that
// adds a field to every blob (every spilled client pays it) fails here.
TEST(HttpCacheFreezeTest, EmptyVarySectionIsOmittedFromBlob) {
  HttpCache empty(false, 0);
  // magic(4) + shared(1) + capacity + 9 stat counters (10 x U64 = 80) +
  // entry count(4).
  EXPECT_EQ(empty.Freeze().size(), 89u);

  // And the lean blob still round-trips losslessly.
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"));
  HttpCache thawed(false, 0);
  ASSERT_TRUE(thawed.Thaw(cache.Freeze()));
  LookupResult a = thawed.Lookup("a", At(1));
  ASSERT_EQ(a.outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(a.entry->response.body, "body-a");
}

TEST(HttpCacheFreezeTest, CorruptBlobFailsClosedToEmpty) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60"));
  std::string blob = cache.Freeze();

  HttpCache victim(false, 0);
  victim.Store("keep", Response("max-age=60"));
  EXPECT_FALSE(victim.Thaw(blob.substr(0, blob.size() / 2)));  // truncated
  EXPECT_EQ(victim.size(), 0u);  // cleared, not half-restored

  std::string bad_magic = blob;
  bad_magic[0] = static_cast<char>(bad_magic[0] + 1);
  EXPECT_FALSE(victim.Thaw(bad_magic));
  EXPECT_TRUE(victim.Thaw(blob));  // the pristine blob still works
  EXPECT_EQ(victim.size(), 1u);
}

// With handle lists, the blob carries body and header-block indexes
// instead of bytes: the thawed cache holds the very buffers and blocks the
// frozen one held.
TEST(HttpCacheFreezeTest, HandleBlobKeepsBodiesShared) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, std::string(500, 'a')));
  cache.Store("b", Response("max-age=60", 0, 2, std::string(500, 'b')));
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
  joined_cache.Store("q", stored(joined));
  HttpCache flat_cache(false, 0);
  flat_cache.Store("q", stored(http::Body(joined.ToString())));

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
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"));
  cache.Store("b", Response("max-age=60", 0, 2, "body-b"));
  FrozenHandles handles;
  std::string blob = cache.Freeze(&handles);
  handles.bodies.pop_back();  // the blob's last index now points past it

  HttpCache victim(false, 0);
  victim.Store("keep", Response("max-age=60"));
  EXPECT_FALSE(victim.Thaw(blob, &handles));
  EXPECT_EQ(victim.size(), 0u);
  EXPECT_EQ(victim.Lookup("a", At(1)).outcome, LookupOutcome::kMiss);
}

TEST(HttpCacheFreezeTest, OutOfRangeHeaderIndexFailsClosedToEmpty) {
  HttpCache cache(false, 0);
  cache.Store("a", Response("max-age=60", 0, 1, "body-a"));
  cache.Store("b", Response("max-age=60", 0, 2, "body-b"));
  FrozenHandles handles;
  std::string blob = cache.Freeze(&handles);
  handles.headers.pop_back();  // the last header index now points past it

  HttpCache victim(false, 0);
  victim.Store("keep", Response("max-age=60"));
  EXPECT_FALSE(victim.Thaw(blob, &handles));
  EXPECT_EQ(victim.size(), 0u);
  EXPECT_EQ(victim.Lookup("a", At(1)).outcome, LookupOutcome::kMiss);
}

TEST(HttpCacheFreezeTest, SharedFlagAndCapacityMismatchRejected) {
  HttpCache private_cache(false, 1024);
  private_cache.Store("a", Response("max-age=60"));
  std::string blob = private_cache.Freeze();
  HttpCache shared_cache(true, 1024);
  EXPECT_FALSE(shared_cache.Thaw(blob));
  HttpCache other_capacity(false, 2048);
  EXPECT_FALSE(other_capacity.Thaw(blob));
}

}  // namespace
}  // namespace speedkit::cache
