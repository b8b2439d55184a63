// The arena client pool: shared-sink accounting must equal per-client
// accounting summed, and cold-client spill must be invisible to protocol
// behavior — a thawed client serves exactly what its never-frozen twin
// would.
#include "proxy/client_pool.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cdn.h"
#include "coherence/protocol.h"
#include "common/chunked_pool.h"
#include "origin/origin_server.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "storage/object_store.h"
#include "ttl/ttl_policy.h"

namespace speedkit::proxy {
namespace {

constexpr char kRecordUrl[] = "https://shop.example.com/api/records/p1";

// Δ = 10 s, so tests can step past a sketch refresh.
coherence::CoherenceConfig Coherence() {
  coherence::CoherenceConfig config;
  config.delta = Duration::Seconds(10);
  return config;
}

// One isolated server side (clock, network, CDN, origin). Comparative
// tests build two of these so the reference run and the run under test
// never share cache or sketch state.
struct World {
  World()
      : network(sim::NetworkConfig::Instant(), Pcg32(1)),
        events(&clock),
        cdn(2, 0),
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

  void Advance(Duration d) { events.RunUntil(clock.Now() + d); }

  sim::SimClock clock;
  sim::Network network;
  sim::EventQueue events;
  cache::Cdn cdn;
  coherence::CoherenceProtocol protocol;
  storage::ObjectStore store;
  ttl::FixedTtlPolicy ttl_policy;
  origin::OriginServer origin;
};

ProxyConfig SpeedKitConfig() {
  ProxyConfig pc;
  pc.device_overhead = Duration::Zero();
  return pc;
}

TEST(ClientPoolTest, SinkAggregationEqualsPerClientSum) {
  // Reference world: two standalone clients, each with its own stats.
  World ref;
  ClientProxy solo1(SpeedKitConfig(), 1, ref.Deps());
  ClientProxy solo2(SpeedKitConfig(), 2, ref.Deps());
  solo1.Fetch(kRecordUrl);
  solo1.Fetch(kRecordUrl);
  solo2.Fetch(kRecordUrl);
  ProxyStats expected;
  expected += solo1.stats();
  expected += solo2.stats();

  // Identical traffic through a pooled fleet in a fresh world: every
  // client records into the pool's sink.
  World w;
  ClientPool pool(ClientPoolConfig{}, w.Deps());
  ClientProxy* p1 = pool.MakeClient(SpeedKitConfig(), 1);
  ClientProxy* p2 = pool.MakeClient(SpeedKitConfig(), 2);
  p1->Fetch(kRecordUrl);
  p1->Fetch(kRecordUrl);
  p2->Fetch(kRecordUrl);

  EXPECT_EQ(pool.stats().requests, expected.requests);
  EXPECT_EQ(pool.stats().browser_hits, expected.browser_hits);
  EXPECT_EQ(pool.stats().edge_hits, expected.edge_hits);
  EXPECT_EQ(pool.stats().origin_fetches, expected.origin_fetches);
  EXPECT_EQ(pool.stats().sketch_refreshes, expected.sketch_refreshes);
  EXPECT_EQ(pool.stats().bytes_over_network, expected.bytes_over_network);
  EXPECT_EQ(pool.stats().ServedTotal(), pool.stats().requests);
  EXPECT_EQ(pool.stats().latency_browser_us.Fingerprint(),
            expected.latency_browser_us.Fingerprint());
  EXPECT_EQ(pool.stats().latency_ok_us.Fingerprint(),
            expected.latency_ok_us.Fingerprint());
  // In sink mode a pooled client's stats() IS the shared aggregate.
  EXPECT_EQ(&p1->stats(), &pool.stats());
  EXPECT_EQ(&p2->stats(), &pool.stats());
}

// Drives the same fetch timeline through a spilling pool and a
// non-spilling one in isolated worlds; every fetch must resolve
// identically (source, status, body) even when the spilling client was
// frozen in between.
TEST(ClientPoolTest, SpillIsBehaviorNeutralAgainstTwinWorld) {
  ClientPoolConfig spilling;
  spilling.spill = SpillMode::kOn;
  ClientPoolConfig inert;
  inert.spill = SpillMode::kOff;

  auto run = [](World& w, ClientPool& pool) {
    ClientProxy* client = pool.MakeClient(SpeedKitConfig(), 1);
    std::vector<std::string> outcomes;
    auto record = [&](const FetchResult& r) {
      outcomes.push_back(std::string(ServedFromName(r.source)) + "/" +
                         std::to_string(r.response.status_code) + "/" +
                         r.response.body.ToString());
    };
    record(client->Fetch(kRecordUrl));   // origin fetch, warms the cache
    w.Advance(Duration::Seconds(5));
    record(client->Fetch(kRecordUrl));   // browser hit
    w.Advance(Duration::Seconds(90));    // idle past the threshold
    pool.SpillIdle(w.clock.Now());       // freezes in the spilling pool
    record(client->Fetch(kRecordUrl));   // stale -> revalidation path
    w.Advance(Duration::Seconds(1));
    record(client->Fetch(kRecordUrl));   // fresh again
    return outcomes;
  };

  World spill_world;
  ClientPool spill_pool(spilling, spill_world.Deps());
  World inert_world;
  ClientPool inert_pool(inert, inert_world.Deps());

  std::vector<std::string> with_spill = run(spill_world, spill_pool);
  std::vector<std::string> without = run(inert_world, inert_pool);
  EXPECT_EQ(with_spill, without);

  // And the spill really happened in the spilling world.
  EXPECT_EQ(spill_pool.SpillStats().freezes, 1u);
  EXPECT_EQ(spill_pool.SpillStats().thaws, 1u);
  EXPECT_EQ(inert_pool.SpillStats().freezes, 0u);
}

TEST(ClientPoolTest, SpillFreezesIdleButNotPristineClients) {
  World w;
  ClientPoolConfig config;
  config.spill = SpillMode::kOn;
  ClientPool pool(config, w.Deps());
  ClientProxy* active = pool.MakeClient(SpeedKitConfig(), 1);
  ClientProxy* pristine = pool.MakeClient(SpeedKitConfig(), 2);

  ASSERT_TRUE(active->Fetch(kRecordUrl).response.ok());
  w.Advance(Duration::Seconds(90));
  EXPECT_EQ(pool.SpillIdle(w.clock.Now()), 1u);
  EXPECT_TRUE(active->browser_cache_frozen());
  EXPECT_GT(active->frozen_bytes(), 0u);
  // The pristine client has nothing worth a blob; it is not frozen.
  EXPECT_FALSE(pristine->browser_cache_frozen());

  ClientPoolSpillStats spill = pool.SpillStats();
  EXPECT_EQ(spill.freezes, 1u);
  EXPECT_EQ(spill.frozen_clients, 1u);
  EXPECT_GT(spill.frozen_bytes, 0u);
}

TEST(ClientPoolTest, AutoModeEngagesAtThreshold) {
  World w;
  ClientPoolConfig config;
  config.spill = SpillMode::kAuto;
  ClientPool pool(config, w.Deps());
  for (uint64_t id = 1; id < 4096; ++id) {
    pool.MakeClient(SpeedKitConfig(), id);
  }
  EXPECT_FALSE(pool.spill_enabled());
  pool.MakeClient(SpeedKitConfig(), 4096);
  EXPECT_TRUE(pool.spill_enabled());

  ClientPoolConfig off;
  off.spill = SpillMode::kOff;
  ClientPool off_pool(off, w.Deps());
  off_pool.MakeClient(SpeedKitConfig(), 4097);
  EXPECT_FALSE(off_pool.spill_enabled());
  EXPECT_EQ(off_pool.SpillIdle(w.clock.Now()), 0u);
}

TEST(ClientPoolTest, BrowserCacheAccessorThawsFrozenClient) {
  World w;
  ClientPoolConfig config;
  config.spill = SpillMode::kOn;
  ClientPool pool(config, w.Deps());
  ClientProxy* client = pool.MakeClient(SpeedKitConfig(), 1);
  client->Fetch(kRecordUrl);
  size_t live_entries = client->browser_cache().size();
  ASSERT_GT(live_entries, 0u);

  w.Advance(Duration::Seconds(60));  // idle for the whole threshold
  pool.SpillIdle(w.clock.Now());
  ASSERT_TRUE(client->browser_cache_frozen());
  // Any direct cache access rehydrates transparently.
  EXPECT_EQ(client->browser_cache().size(), live_entries);
  EXPECT_FALSE(client->browser_cache_frozen());
}

TEST(ChunkedPoolTest, StableAddressesAcrossGrowth) {
  ChunkedPool<std::string, 4> pool;
  std::vector<std::string*> ptrs;
  for (int i = 0; i < 100; ++i) {
    ptrs.push_back(pool.Emplace("value-" + std::to_string(i)));
  }
  ASSERT_EQ(pool.size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pool.at(i), ptrs[i]);
    EXPECT_EQ(*ptrs[i], "value-" + std::to_string(i));
  }
  // ForEach visits in construction order.
  int next = 0;
  pool.ForEach([&](const std::string& s) {
    EXPECT_EQ(s, "value-" + std::to_string(next++));
  });
  EXPECT_EQ(next, 100);
}

}  // namespace
}  // namespace speedkit::proxy
