// Mutation test for HttpCache::Thaw, the parser of spilled-cache blobs.
// A seeded cache (flat and joined bodies, no-cache and max-age entries,
// one to three headers each) is frozen in both blob forms and both cache
// classes; every single-byte flip (XOR 0x01 and 0xFF) and every truncation
// of each blob is thawed. A thaw must fail closed, leaving the cache empty,
// or succeed with a cache whose own blob is a fixed point: it thaws, and
// that cache freezes to the same bytes again.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/http_cache.h"

namespace speedkit::cache {
namespace {

constexpr size_t kCapacity = 1 << 20;

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

http::HttpResponse Response(std::string_view cache_control, http::Body body,
                            int header_count, uint64_t version) {
  http::HttpResponse resp;
  resp.status_code = 200;
  resp.body = std::move(body);
  resp.headers.Set("Cache-Control", cache_control);
  if (header_count >= 2) resp.SetETag("\"v" + std::to_string(version) + "\"");
  if (header_count >= 3) {
    resp.headers.Add("X-Note", "a header value longer than fifteen bytes");
  }
  resp.object_version = version;
  resp.generated_at = At(static_cast<double>(version));
  return resp;
}

HttpCache SeededCache(bool shared) {
  http::Body joined = http::Body::Join(
      "[", {http::Body("record-1"), http::Body(std::string(40, 'r'))}, ",",
      "]");
  HttpCache cache(shared, kCapacity);
  const std::pair<const char*, http::HttpResponse> entries[] = {
      {"https://shop/a", Response("public, max-age=60", "flat-a", 1, 1)},
      {"https://shop/q?c=1", Response("public, max-age=30, "
                                      "stale-while-revalidate=3",
                                      joined, 2, 2)},
      {"https://shop/b", Response("no-cache, max-age=0", "flat-b", 3, 3)},
      {"https://shop/q?c=2", Response("max-age=5", joined, 3, 4)},
      {"https://shop/c", Response("no-cache", std::string(100, 'c'), 1, 5)},
      {"https://shop/d", Response("s-maxage=90, max-age=10", "d", 2, 6)},
  };
  for (const auto& [key, resp] : entries) {
    EXPECT_TRUE(cache.Store(key, resp)) << key;
  }
  cache.Lookup("https://shop/a", At(2));
  cache.Lookup("https://shop/missing", At(2));
  return cache;
}

// Thaws `blob` (against `handles` for the handle form) and checks the
// contract; returns false once a check failed.
bool ThawFailsClosedOrReachesAFixedPoint(bool shared, std::string_view blob,
                                         const FrozenHandles* handles) {
  HttpCache victim(shared, kCapacity);
  victim.Store("https://shop/keep", Response("max-age=60", "kept", 1, 9));
  if (!victim.Thaw(blob, handles)) {
    EXPECT_EQ(victim.size(), 0u);
    return victim.size() == 0;
  }
  FrozenHandles first;
  FrozenHandles second;
  const bool handle_form = handles != nullptr;
  std::string again = victim.Freeze(handle_form ? &first : nullptr);
  HttpCache twin(shared, kCapacity);
  bool thawed = twin.Thaw(again, handle_form ? &first : nullptr);
  EXPECT_TRUE(thawed);
  std::string fixed = twin.Freeze(handle_form ? &second : nullptr);
  EXPECT_EQ(fixed, again);
  return thawed && fixed == again;
}

TEST(HttpCacheFreezeFuzz, FlipsAndTruncationsFailClosedOrReachAFixedPoint) {
  for (bool shared : {false, true}) {
    HttpCache cache = SeededCache(shared);
    ASSERT_EQ(cache.size(), 6u);
    for (bool handle_form : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << (shared ? "shared" : "private")
                   << (handle_form ? " handle blob" : " self-contained blob"));
      FrozenHandles handles;
      const std::string blob = cache.Freeze(handle_form ? &handles : nullptr);
      const FrozenHandles* against = handle_form ? &handles : nullptr;
      ASSERT_TRUE(ThawFailsClosedOrReachesAFixedPoint(shared, blob, against));
      for (size_t at = 0; at < blob.size(); ++at) {
        for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
          std::string mutated = blob;
          mutated[at] = static_cast<char>(mutated[at] ^ mask);
          ASSERT_TRUE(ThawFailsClosedOrReachesAFixedPoint(shared, mutated,
                                                          against))
              << "byte " << at << " ^ " << int{mask};
        }
      }
      for (size_t size = 0; size < blob.size(); ++size) {
        ASSERT_TRUE(ThawFailsClosedOrReachesAFixedPoint(
            shared, std::string_view(blob).substr(0, size), against))
            << "truncated to " << size;
      }
    }
  }
}

}  // namespace
}  // namespace speedkit::cache
