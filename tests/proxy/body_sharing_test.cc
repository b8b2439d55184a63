// One buffer per response version: a body rendered once at the origin is
// the same allocation in the render cache, the edge entry, every browser
// cache behind that edge, every FetchResult, and a spilled browser cache's
// handle list. The response's header block is shared the same way, and a
// query listing shares its record fragments with the listing's other
// versions.
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cdn.h"
#include "coherence/protocol.h"
#include "common/strings.h"
#include "invalidation/predicate.h"
#include "origin/origin_server.h"
#include "proxy/client_pool.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "storage/object_store.h"
#include "ttl/ttl_policy.h"

namespace speedkit::proxy {
namespace {

constexpr char kRecordUrl[] = "https://shop.example.com/api/records/p1";

http::HttpRequest Get(const char* url) {
  return http::HttpRequest::Get(*http::Url::Parse(url));
}

// A TTL the test can move between requests.
class SettableTtlPolicy : public ttl::TtlPolicy {
 public:
  Duration TtlFor(std::string_view, SimTime) override { return ttl; }
  void ObserveWrite(std::string_view, SimTime) override {}
  Duration ttl = Duration::Seconds(60);
};

// Δ = 10 s, so tests can step past a sketch refresh.
coherence::CoherenceConfig Coherence() {
  coherence::CoherenceConfig config;
  config.delta = Duration::Seconds(10);
  return config;
}

// One edge, so every client routes to it.
struct World {
  World()
      : network(sim::NetworkConfig::Instant(), Pcg32(1)),
        cdn(1, 0),
        protocol(Coherence()),
        ttl_policy(Duration::Seconds(60)),
        origin(origin::OriginConfig{}, &clock, &store, &ttl_policy,
               &protocol.publication()) {
    store.Put("p1", {{"price", 10.0}}, clock.Now());
  }

  ProxyDeps Deps() {
    ProxyDeps deps;
    deps.clock = &clock;
    deps.network = &network;
    deps.cdn = &cdn;
    deps.origin = &origin;
    deps.coherence = &protocol;
    return deps;
  }

  const http::HttpResponse& BrowserResponse(ClientProxy* client) {
    return client->browser_cache().Lookup(key, clock.Now()).entry->response;
  }

  sim::SimClock clock;
  sim::Network network;
  cache::Cdn cdn;
  coherence::CoherenceProtocol protocol;
  storage::ObjectStore store;
  ttl::FixedTtlPolicy ttl_policy;
  origin::OriginServer origin;
  const std::string key = http::Url::Parse(kRecordUrl)->CacheKey();
};

TEST(BodySharingTest, ClientsBehindOneEdgeShareTheRenderedBuffer) {
  World w;
  ClientPool pool(ClientPoolConfig{}, w.Deps());
  std::vector<ClientProxy*> clients;
  std::vector<FetchResult> results;
  for (uint64_t id = 1; id <= 4; ++id) {
    clients.push_back(pool.MakeClient(ProxyConfig(), id));
    results.push_back(clients.back()->Fetch(kRecordUrl));
    ASSERT_TRUE(results.back().response.ok());
  }
  EXPECT_EQ(results[0].source, ServedFrom::kOrigin);
  EXPECT_EQ(results[1].source, ServedFrom::kEdgeCache);

  const cache::CacheEntry* edge_entry =
      w.cdn.edge(0).Lookup(w.key, w.clock.Now()).entry;
  ASSERT_NE(edge_entry, nullptr);
  const http::Body& shared = edge_entry->response.body;
  const http::HeaderMap& shared_head = edge_entry->response.headers;
  ASSERT_FALSE(shared_head.empty());
  // A render-cache hit hands out the stored body and header block.
  http::HttpResponse again = w.origin.Handle(Get(kRecordUrl));
  EXPECT_TRUE(again.body.SharesBufferWith(shared));
  EXPECT_TRUE(again.headers.SharesStorageWith(shared_head));
  for (size_t i = 0; i < clients.size(); ++i) {
    EXPECT_TRUE(results[i].response.body.SharesBufferWith(shared));
    EXPECT_TRUE(results[i].response.headers.SharesStorageWith(shared_head));
    const http::HttpResponse& stored = w.BrowserResponse(clients[i]);
    EXPECT_TRUE(stored.body.SharesBufferWith(shared));
    EXPECT_TRUE(stored.headers.SharesStorageWith(shared_head));
  }
}

TEST(BodySharingTest, SpilledCacheThawsOntoTheSameBuffer) {
  World w;
  ClientProxy client(ProxyConfig(), 1, w.Deps());
  ASSERT_TRUE(client.Fetch(kRecordUrl).response.ok());
  const http::HttpResponse held = w.BrowserResponse(&client);
  ASSERT_TRUE(held.headers.SharesStorageWith(
      w.cdn.edge(0).Lookup(w.key, w.clock.Now()).entry->response.headers));

  client.FreezeBrowserCache();
  ASSERT_TRUE(client.browser_cache_frozen());

  w.clock.Advance(Duration::Seconds(1));
  FetchResult r = client.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);
  EXPECT_TRUE(r.response.body.SharesBufferWith(held.body));
  EXPECT_TRUE(r.response.headers.SharesStorageWith(held.headers));
  const http::HttpResponse& thawed = w.BrowserResponse(&client);
  EXPECT_TRUE(thawed.body.SharesBufferWith(held.body));
  EXPECT_TRUE(thawed.headers.SharesStorageWith(held.headers));
}

// What a spilled client holds is exactly what frozen_bytes() reports: an
// exact-size blob plus its two handle lists.
TEST(BodySharingTest, FrozenBlobHoldsNoSlack) {
  World w;
  for (int i = 2; i <= 13; ++i) {
    w.store.Put(StrFormat("p%d", i), {{"price", 10.0}}, w.clock.Now());
  }
  ClientProxy client(ProxyConfig(), 1, w.Deps());
  for (int i = 1; i <= 13; ++i) {
    std::string url =
        "https://shop.example.com/api/records/p" + std::to_string(i);
    ASSERT_TRUE(client.Fetch(url).response.ok());
  }
  EXPECT_EQ(client.frozen_bytes(), 0u);
  client.FreezeBrowserCache();
  ASSERT_TRUE(client.browser_cache_frozen());
  const std::string& blob = client.frozen_blob();
  EXPECT_EQ(blob.capacity(), blob.size());
  EXPECT_EQ(client.frozen_bytes(),
            blob.size() + 13 * (sizeof(http::Body) + sizeof(http::HeaderMap)));
}

// Every 200 the origin serves for one version under one TTL carries the
// block its render cache stored; a TTL change makes a new block, which
// the next 200 shares in turn.
TEST(BodySharingTest, OriginTwoHundredsShareTheirHeaderBlockUntilTtlMoves) {
  sim::SimClock clock;
  storage::ObjectStore store;
  store.Put("p1", {{"price", 10.0}}, clock.Now());
  SettableTtlPolicy ttl_policy;
  origin::OriginServer origin(origin::OriginConfig{}, &clock, &store,
                              &ttl_policy, nullptr);
  http::HttpResponse first = origin.Handle(Get(kRecordUrl));
  clock.Advance(Duration::Seconds(1));
  http::HttpResponse second = origin.Handle(Get(kRecordUrl));
  ASSERT_EQ(first.status_code, 200);
  EXPECT_TRUE(second.headers.SharesStorageWith(first.headers));

  ttl_policy.ttl = Duration::Seconds(30);
  http::HttpResponse third = origin.Handle(Get(kRecordUrl));
  EXPECT_FALSE(third.headers.SharesStorageWith(first.headers));
  EXPECT_TRUE(third.GetCacheControl().max_age == Duration::Seconds(30));
  http::HttpResponse fourth = origin.Handle(Get(kRecordUrl));
  EXPECT_TRUE(fourth.headers.SharesStorageWith(third.headers));
  EXPECT_EQ(origin.stats().render_cache_hits, 3u);
  EXPECT_EQ(origin.stats().render_cache_misses, 1u);
}

// The record fragments of one query listing, in order: the chunks a
// Render() starts, told apart from the listing's head, separators and tail.
std::vector<std::string_view> FragmentChunks(const http::Body& body) {
  std::vector<std::string_view> fragments;
  body.ForEachChunk([&fragments](std::string_view chunk) {
    if (chunk.starts_with("{\"id\":\"")) fragments.push_back(chunk);
  });
  return fragments;
}

// Successive versions of a query result share every record fragment the
// write left alone: a price write to one member of a 100-member category
// renders one new fragment, and the second listing holds the other 99 as
// the very buffers the first one holds. Clients behind one edge hold the
// one joined body.
TEST(BodySharingTest, QueryVersionsShareUnchangedRecordFragments) {
  constexpr char kQueryUrl[] = "https://shop.example.com/api/queries/cat-7";
  constexpr size_t kWritten = 42;
  World w;
  auto id = [](size_t i) {
    return std::string(i < 10 ? "c0" : "c") + std::to_string(i);
  };
  for (size_t i = 0; i < 100; ++i) {
    w.store.Put(id(i), {{"category", int64_t{7}}, {"price", 10.0 + i}},
                w.clock.Now());
  }
  invalidation::Query query;
  query.id = "cat-7";
  query.conditions.push_back({"category", invalidation::Op::kEq, int64_t{7}});
  ASSERT_TRUE(w.origin.RegisterQuery(query).ok());

  http::HttpResponse first = w.origin.Handle(Get(kQueryUrl));
  w.clock.Advance(Duration::Seconds(1));
  w.store.Update(id(kWritten), {{"price", 99.5}}, w.clock.Now());
  http::HttpResponse second = w.origin.Handle(Get(kQueryUrl));
  ASSERT_EQ(second.object_version, first.object_version + 1);

  std::vector<std::string_view> before = FragmentChunks(first.body);
  std::vector<std::string_view> after = FragmentChunks(second.body);
  ASSERT_EQ(before.size(), 100u);
  ASSERT_EQ(after.size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    if (i == kWritten) {
      EXPECT_NE(after[i].data(), before[i].data());
      EXPECT_EQ(after[i], w.store.Peek(id(i))->Render());
    } else {
      EXPECT_EQ(after[i].data(), before[i].data()) << id(i);
    }
  }

  // Byte for byte the flat render of the same listing.
  std::string flat = "{\"query\":\"cat-7\",\"results\":[";
  for (size_t i = 0; i < 100; ++i) {
    if (i > 0) flat += ",";
    flat += w.store.Peek(id(i))->Render();
  }
  flat += "]}";
  EXPECT_EQ(second.body.size(), flat.size());
  EXPECT_EQ(second.body.ToString(), flat);

  ClientPool pool(ClientPoolConfig{}, w.Deps());
  ClientProxy* a = pool.MakeClient(ProxyConfig(), 1);
  ClientProxy* b = pool.MakeClient(ProxyConfig(), 2);
  EXPECT_EQ(a->Fetch(kQueryUrl).source, ServedFrom::kOrigin);
  EXPECT_EQ(b->Fetch(kQueryUrl).source, ServedFrom::kEdgeCache);
  const std::string key = http::Url::Parse(kQueryUrl)->CacheKey();
  const http::Body& held_a =
      a->browser_cache().Lookup(key, w.clock.Now()).entry->response.body;
  const http::Body& held_b =
      b->browser_cache().Lookup(key, w.clock.Now()).entry->response.body;
  EXPECT_TRUE(held_a.SharesBufferWith(held_b));
  EXPECT_TRUE(held_a.SharesBufferWith(second.body));
}

// The legacy per-user fragment is no-store and carries PII: the render
// cache keeps nothing of it, so no two of its responses share a block.
TEST(BodySharingTest, PerUserResponsesNeverShareAHeaderBlock) {
  World w;
  constexpr char kUserUrl[] =
      "https://shop.example.com/api/fragments/recs?user=u1";
  http::HttpResponse a = w.origin.Handle(Get(kUserUrl));
  http::HttpResponse b = w.origin.Handle(Get(kUserUrl));
  ASSERT_EQ(a.status_code, 200);
  EXPECT_TRUE(a.GetCacheControl().no_store);
  EXPECT_EQ(a.headers, b.headers);
  EXPECT_FALSE(a.headers.SharesStorageWith(b.headers));
  EXPECT_FALSE(a.body.SharesBufferWith(b.body));
}

}  // namespace
}  // namespace speedkit::proxy
