// One buffer per response version: a body rendered once at the origin is
// the same allocation in the render cache, the edge entry, every browser
// cache behind that edge, every FetchResult, and a spilled browser cache's
// handle list.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cdn.h"
#include "coherence/delta_atomic.h"
#include "origin/origin_server.h"
#include "proxy/client_pool.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "storage/object_store.h"
#include "ttl/ttl_policy.h"

namespace speedkit::proxy {
namespace {

constexpr char kRecordUrl[] = "https://shop.example.com/api/records/p1";

coherence::CoherenceConfig SketchCoherenceConfig() {
  coherence::CoherenceConfig config;
  config.sketch_capacity = 1000;
  config.sketch_fpr = 0.001;
  return config;
}

// One edge, so every client routes to it.
struct World {
  World()
      : network(sim::NetworkConfig::Instant(), Pcg32(1)),
        cdn(1, 0),
        protocol(SketchCoherenceConfig()),
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

  const http::Body& BrowserBody(ClientProxy* client) {
    return client->browser_cache()
        .Lookup(key, clock.Now())
        .entry->response.body;
  }

  sim::SimClock clock;
  sim::Network network;
  cache::Cdn cdn;
  coherence::DeltaAtomicProtocol protocol;
  storage::ObjectStore store;
  ttl::FixedTtlPolicy ttl_policy;
  origin::OriginServer origin;
  const std::string key = http::Url::Parse(kRecordUrl)->CacheKey();
};

ProxyConfig SpeedKitConfig() {
  ProxyConfig pc;
  pc.sketch_refresh_interval = Duration::Seconds(10);
  return pc;
}

TEST(BodySharingTest, ClientsBehindOneEdgeShareTheRenderedBuffer) {
  World w;
  ClientPool pool(ClientPoolConfig{}, w.Deps());
  std::vector<ClientProxy*> clients;
  std::vector<FetchResult> results;
  for (uint64_t id = 1; id <= 4; ++id) {
    clients.push_back(pool.MakeClient(SpeedKitConfig(), id));
    results.push_back(clients.back()->Fetch(kRecordUrl));
    ASSERT_TRUE(results.back().response.ok());
  }
  EXPECT_EQ(results[0].source, ServedFrom::kOrigin);
  EXPECT_EQ(results[1].source, ServedFrom::kEdgeCache);

  const cache::CacheEntry* edge_entry =
      w.cdn.edge(0).Lookup(w.key, w.clock.Now()).entry;
  ASSERT_NE(edge_entry, nullptr);
  const http::Body& shared = edge_entry->response.body;
  // A render-cache hit hands out the stored body itself.
  EXPECT_TRUE(w.origin.Handle(http::HttpRequest::Get(
                                  *http::Url::Parse(kRecordUrl)))
                  .body.SharesBufferWith(shared));
  for (size_t i = 0; i < clients.size(); ++i) {
    EXPECT_TRUE(results[i].response.body.SharesBufferWith(shared));
    EXPECT_TRUE(w.BrowserBody(clients[i]).SharesBufferWith(shared));
  }
}

TEST(BodySharingTest, SpilledCacheThawsOntoTheSameBuffer) {
  World w;
  ClientProxy client(SpeedKitConfig(), 1, w.Deps());
  ASSERT_TRUE(client.Fetch(kRecordUrl).response.ok());
  const http::Body held = w.BrowserBody(&client);

  client.FreezeBrowserCache();
  ASSERT_TRUE(client.browser_cache_frozen());

  w.clock.Advance(Duration::Seconds(1));
  FetchResult r = client.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);
  EXPECT_TRUE(r.response.body.SharesBufferWith(held));
  EXPECT_TRUE(w.BrowserBody(&client).SharesBufferWith(held));
}

}  // namespace
}  // namespace speedkit::proxy
