#include "proxy/client_proxy.h"

#include <gtest/gtest.h>

#include "coherence/protocol.h"
#include "invalidation/pipeline.h"

namespace speedkit::proxy {
namespace {

constexpr char kRecordUrl[] = "https://shop.example.com/api/records/p1";

// Harness wiring a full server side with an instant network so latency
// does not obscure protocol behaviour (separate tests cover latency).
class ClientProxyTest : public ::testing::Test {
 protected:
  ClientProxyTest()
      : network_(sim::NetworkConfig::Instant(), Pcg32(1)),
        events_(&clock_),
        cdn_(2),
        protocol_(Coherence()),
        ttl_policy_(Duration::Seconds(60)),
        origin_(origin::OriginConfig{}, &clock_, &store_, &ttl_policy_,
                &protocol_.publication()),
        // The origin's expiry book knows which copies are outstanding; the
        // pipeline sizes sketch horizons from it.
        pipeline_(PipelineConfig(), &clock_, &events_, &cdn_, &protocol_,
                  &origin_.expiry_book(), Pcg32(2)) {
    origin_.SetPipeline(&pipeline_);
    store_.Put("p1", {{"price", 10.0}}, clock_.Now());
    // The initial insert put p1 into the sketch (purges in flight); settle
    // past that horizon so tests start from a quiescent system.
    events_.RunUntil(clock_.Now() + Duration::Seconds(1));
  }

  // Δ = 10 s, so tests can step past a sketch refresh.
  static coherence::CoherenceConfig Coherence() {
    coherence::CoherenceConfig config;
    config.delta = Duration::Seconds(10);
    return config;
  }

  static invalidation::PipelineConfig PipelineConfig() {
    invalidation::PipelineConfig config;
    config.purge_median_delay = Duration::Millis(50);
    config.purge_log_sigma = 0.0;
    return config;
  }

  ProxyConfig SpeedKitConfig() {
    ProxyConfig pc;
    pc.device_overhead = Duration::Zero();
    return pc;
  }

  // Without the coherence tier in its deps the proxy keeps no sketch.
  ClientProxy MakeProxy(const ProxyConfig& pc, uint64_t id = 1,
                        bool with_sketch = true,
                        obs::Tracer* tracer = nullptr) {
    ProxyDeps deps;
    deps.clock = &clock_;
    deps.network = &network_;
    deps.cdn = &cdn_;
    deps.origin = &origin_;
    deps.coherence = with_sketch ? &protocol_ : nullptr;
    deps.tracer = tracer;
    return ClientProxy(pc, id, deps);
  }

  void WriteP1(double price) {
    store_.Update("p1", {{"price", price}}, clock_.Now());
  }

  void Advance(Duration d) { events_.RunUntil(clock_.Now() + d); }

  sim::SimClock clock_;
  sim::Network network_;
  sim::EventQueue events_;
  cache::Cdn cdn_;
  coherence::CoherenceProtocol protocol_;
  storage::ObjectStore store_;
  ttl::FixedTtlPolicy ttl_policy_;
  origin::OriginServer origin_;
  invalidation::InvalidationPipeline pipeline_;
};

TEST_F(ClientProxyTest, FirstFetchComesFromOrigin) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_TRUE(r.response.ok());
  EXPECT_EQ(r.source, ServedFrom::kOrigin);
  EXPECT_EQ(proxy.stats().origin_fetches, 1u);
}

TEST_F(ClientProxyTest, SecondFetchHitsBrowserCache) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);
  EXPECT_EQ(proxy.stats().browser_hits, 1u);
}

TEST_F(ClientProxyTest, SecondClientOnSameEdgeHitsEdgeCache) {
  ClientProxy a = MakeProxy(SpeedKitConfig(), 1);
  a.Fetch(kRecordUrl);
  // Find a client id routed to the same edge as client 1.
  uint64_t same_edge_id = 2;
  while (cdn_.RouteFor(same_edge_id) != cdn_.RouteFor(1)) ++same_edge_id;
  ClientProxy b = MakeProxy(SpeedKitConfig(), same_edge_id);
  FetchResult r = b.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kEdgeCache);
}

TEST_F(ClientProxyTest, ClientOnOtherEdgeMissesEdgeCache) {
  ClientProxy a = MakeProxy(SpeedKitConfig(), 1);
  a.Fetch(kRecordUrl);
  uint64_t other_edge_id = 2;
  while (cdn_.RouteFor(other_edge_id) == cdn_.RouteFor(1)) ++other_edge_id;
  ClientProxy b = MakeProxy(SpeedKitConfig(), other_edge_id);
  EXPECT_EQ(b.Fetch(kRecordUrl).source, ServedFrom::kOrigin);
}

TEST_F(ClientProxyTest, SketchFlagsWriteAndForcesRevalidation) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);  // v1 cached everywhere
  WriteP1(11.0);            // v2; key enters sketch
  Advance(Duration::Seconds(10));  // sketch refresh due; purges landed

  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_TRUE(r.sketch_bypass);
  EXPECT_EQ(r.response.object_version, 2u);
  EXPECT_EQ(proxy.stats().sketch_bypasses, 1u);
  // The browser copy was v1, so the conditional got a full 200 back.
  EXPECT_EQ(proxy.stats().revalidations_200, 1u);
}

TEST_F(ClientProxyTest, UnchangedFlaggedKeyRevalidatesWith304) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);  // v1
  WriteP1(11.0);            // v2
  Advance(Duration::Seconds(10));
  proxy.Fetch(kRecordUrl);  // revalidated to v2

  // Key is still in the sketch (horizon = served TTL); next fetch must
  // revalidate again — and the copy is current now, so it's a cheap 304.
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_TRUE(r.sketch_bypass);
  EXPECT_TRUE(r.revalidated);
  EXPECT_EQ(r.response.object_version, 2u);
  EXPECT_EQ(proxy.stats().revalidations_304, 1u);
}

TEST_F(ClientProxyTest, WithoutSketchServesStaleUntilTtl) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig(), 1, /*with_sketch=*/false);
  proxy.Fetch(kRecordUrl);  // v1, TTL 60s
  WriteP1(11.0);            // v2
  Advance(Duration::Seconds(10));
  FetchResult r = proxy.Fetch(kRecordUrl);
  // Expiration-based caching alone: the stale v1 is served.
  EXPECT_EQ(r.response.object_version, 1u);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);
}

TEST_F(ClientProxyTest, SketchRefreshHappensEveryDelta) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());  // delta = 10s
  proxy.Fetch(kRecordUrl);
  EXPECT_EQ(proxy.stats().sketch_refreshes, 1u);
  proxy.Fetch(kRecordUrl);  // within delta: no refresh
  EXPECT_EQ(proxy.stats().sketch_refreshes, 1u);
  Advance(Duration::Seconds(10));
  proxy.Fetch(kRecordUrl);
  EXPECT_EQ(proxy.stats().sketch_refreshes, 2u);
  EXPECT_GT(proxy.stats().sketch_bytes, 0u);
}

TEST_F(ClientProxyTest, StaleBrowserEntryRevalidates) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);
  // Past TTL *and* the stale-while-revalidate window (TTL + 50% = 90s);
  // the key never entered the sketch.
  Advance(Duration::Seconds(91));
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_TRUE(r.revalidated);
  EXPECT_EQ(r.response.object_version, 1u);
  EXPECT_EQ(proxy.stats().revalidations_304, 1u);
  // Refreshed entry serves from browser again.
  EXPECT_EQ(proxy.Fetch(kRecordUrl).source, ServedFrom::kBrowserCache);
}

TEST_F(ClientProxyTest, VanillaModeSkipsCdnAndSketch) {
  ProxyConfig pc;
  pc.enabled = false;
  ClientProxy proxy = MakeProxy(pc);
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kOrigin);
  EXPECT_EQ(proxy.stats().sketch_refreshes, 0u);
  // Nothing was stored at the edge.
  EXPECT_EQ(cdn_.TotalStats().stores, 0u);
  // Browser cache still works.
  EXPECT_EQ(proxy.Fetch(kRecordUrl).source, ServedFrom::kBrowserCache);
}

TEST_F(ClientProxyTest, OfflineModeServesStaleDuringOutage) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);
  Advance(Duration::Seconds(91));  // browser copy past TTL and SWR window
  origin_.set_available(false);
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kOfflineCache);
  EXPECT_TRUE(r.response.ok());
  EXPECT_EQ(proxy.stats().offline_serves, 1u);
}

TEST_F(ClientProxyTest, OutageWithoutOfflineModeErrors) {
  ProxyConfig pc = SpeedKitConfig();
  pc.offline_mode = false;
  ClientProxy proxy = MakeProxy(pc);
  proxy.Fetch(kRecordUrl);
  Advance(Duration::Seconds(91));  // past TTL + SWR window
  origin_.set_available(false);
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.response.status_code, 503);
  EXPECT_EQ(proxy.stats().errors, 1u);
}

TEST_F(ClientProxyTest, OutageWithColdCacheErrorsEvenInOfflineMode) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  origin_.set_available(false);
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.response.status_code, 503);
}

TEST_F(ClientProxyTest, MalformedUrlIsClientError) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  FetchResult r = proxy.Fetch("not a url");
  EXPECT_EQ(r.response.status_code, 400);
  EXPECT_EQ(r.source, ServedFrom::kError);
}

TEST_F(ClientProxyTest, PurgedEdgeServesFreshAfterWrite) {
  ClientProxy a = MakeProxy(SpeedKitConfig(), 1);
  a.Fetch(kRecordUrl);  // v1 at edge
  WriteP1(11.0);
  Advance(Duration::Seconds(1));  // purge done (50ms)
  uint64_t same_edge_id = 2;
  while (cdn_.RouteFor(same_edge_id) != cdn_.RouteFor(1)) ++same_edge_id;
  ClientProxy b = MakeProxy(SpeedKitConfig(), same_edge_id);
  FetchResult r = b.Fetch(kRecordUrl);
  EXPECT_EQ(r.response.object_version, 2u);
  EXPECT_EQ(r.source, ServedFrom::kOrigin);  // edge was purged
}

TEST_F(ClientProxyTest, BytesAccountingSplitsCacheAndNetwork) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);
  uint64_t network_after_first = proxy.stats().bytes_over_network;
  EXPECT_GT(network_after_first, 0u);
  proxy.Fetch(kRecordUrl);
  EXPECT_EQ(proxy.stats().bytes_over_network, network_after_first);
  EXPECT_GT(proxy.stats().bytes_from_browser_cache, 0u);
}

TEST_F(ClientProxyTest, LatencyReflectsNetworkDistance) {
  sim::NetworkConfig net_config;  // real distances, no jitter
  net_config.client_edge = sim::LinkSpec{Duration::Millis(20), 0.0, 0.0};
  net_config.client_origin = sim::LinkSpec{Duration::Millis(100), 0.0, 0.0};
  net_config.edge_origin = sim::LinkSpec{Duration::Millis(80), 0.0, 0.0};
  sim::Network net(net_config, Pcg32(1));
  ProxyConfig pc = SpeedKitConfig();
  ProxyDeps deps;
  deps.clock = &clock_;
  deps.network = &net;
  deps.cdn = &cdn_;
  deps.origin = &origin_;
  deps.coherence = &protocol_;
  ClientProxy proxy(pc, 1, deps);

  // Miss: client->edge->origin = 20 + 80 ms plus the origin's record
  // render time (8 ms); the due sketch refresh (20 ms to the edge)
  // overlaps the in-flight request.
  FetchResult miss = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(miss.latency, Duration::Millis(100) + origin::kRecordRenderTime);
  // Browser hit: free.
  FetchResult hit = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(hit.latency, Duration::Zero());

  // Edge hit for a same-edge neighbour: 20 ms; the sketch refresh (also
  // 20 ms) overlaps it.
  uint64_t same_edge_id = 2;
  while (cdn_.RouteFor(same_edge_id) != cdn_.RouteFor(1)) ++same_edge_id;
  ClientProxy b(pc, same_edge_id, deps);
  FetchResult edge_hit = b.Fetch(kRecordUrl);
  EXPECT_EQ(edge_hit.source, ServedFrom::kEdgeCache);
  EXPECT_EQ(edge_hit.latency, Duration::Millis(20));
}

TEST_F(ClientProxyTest, GdprBlockRendersOnDevice) {
  personalization::PiiVault vault(777);
  vault.Put("name", "Ada");
  vault.Put("cart", "2 items");
  personalization::BoundaryAuditor auditor;
  auditor.RegisterVault(vault);

  ProxyConfig pc = SpeedKitConfig();
  ProxyDeps deps;
  deps.clock = &clock_;
  deps.network = &network_;
  deps.cdn = &cdn_;
  deps.origin = &origin_;
  deps.coherence = &protocol_;
  deps.auditor = &auditor;
  ClientProxy proxy(pc, 777, deps);
  proxy.AttachVault(&vault);

  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/product";
  personalization::DynamicBlock block{"cart",
                                      personalization::BlockScope::kUser};
  personalization::Segmenter segmenter(10);
  BlockResult r = proxy.FetchBlock(page, block, segmenter);
  EXPECT_TRUE(r.rendered_on_device);
  EXPECT_NE(r.content.find("Ada"), std::string::npos);
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_F(ClientProxyTest, LegacyBlockLeaksIdentity) {
  personalization::PiiVault vault(777);
  personalization::BoundaryAuditor auditor;
  auditor.RegisterVault(vault);

  ProxyConfig pc = SpeedKitConfig();
  pc.gdpr_mode = false;
  ProxyDeps deps;
  deps.clock = &clock_;
  deps.network = &network_;
  deps.cdn = &cdn_;
  deps.origin = &origin_;
  deps.coherence = &protocol_;
  deps.auditor = &auditor;
  ClientProxy proxy(pc, 777, deps);
  proxy.AttachVault(&vault);

  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/product";
  personalization::DynamicBlock block{"cart",
                                      personalization::BlockScope::kUser};
  personalization::Segmenter segmenter(10);
  BlockResult r = proxy.FetchBlock(page, block, segmenter);
  EXPECT_FALSE(r.rendered_on_device);
  EXPECT_GT(auditor.violations(), 0u);  // user id crossed the boundary
}

TEST_F(ClientProxyTest, SegmentBlocksShareCacheAcrossSameSegmentUsers) {
  personalization::Segmenter segmenter(1);  // everyone in one segment
  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/home";
  personalization::DynamicBlock block{"recs",
                                      personalization::BlockScope::kSegment};
  ClientProxy a = MakeProxy(SpeedKitConfig(), 1);
  a.FetchBlock(page, block, segmenter);
  uint64_t same_edge_id = 2;
  while (cdn_.RouteFor(same_edge_id) != cdn_.RouteFor(1)) ++same_edge_id;
  ClientProxy b = MakeProxy(SpeedKitConfig(), same_edge_id);
  BlockResult r = b.FetchBlock(page, block, segmenter);
  EXPECT_EQ(r.source, ServedFrom::kEdgeCache);
}

TEST_F(ClientProxyTest, MalformedUrlCountsAsRequest) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch("not a url");
  EXPECT_EQ(proxy.stats().requests, 1u);
  EXPECT_EQ(proxy.stats().errors, 1u);
  EXPECT_EQ(proxy.stats().ServedTotal(), proxy.stats().requests);
}

TEST_F(ClientProxyTest, SwrBackgroundTrafficStaysOutOfServeBuckets) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);  // v1, TTL 60s
  // Past TTL but inside the SWR window (TTL + 50% = 90s), sketch-clean.
  Advance(Duration::Seconds(61));
  uint64_t network_bytes_before = proxy.stats().bytes_over_network;
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);

  const ProxyStats& s = proxy.stats();
  EXPECT_EQ(s.swr_serves, 1u);
  EXPECT_EQ(s.requests, 2u);
  // The background revalidation must not masquerade as page traffic.
  EXPECT_EQ(s.origin_fetches, 1u);  // only the initial cold fetch
  EXPECT_EQ(s.edge_hits, 0u);
  EXPECT_EQ(s.bytes_over_network, network_bytes_before);
  EXPECT_EQ(s.background_revalidations, 1u);
  EXPECT_EQ(s.background_304s, 1u);  // nothing changed: cheap 304
  EXPECT_GT(s.background_bytes, 0u);
  EXPECT_EQ(s.ServedTotal(), s.requests);
}

TEST_F(ClientProxyTest, StatsReconcileOverMixedWorkload) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);    // cold: origin fetch
  proxy.Fetch(kRecordUrl);    // fresh: browser hit
  proxy.Fetch("no-scheme");   // malformed: error
  Advance(Duration::Seconds(61));
  proxy.Fetch(kRecordUrl);    // expired but within SWR window: swr serve
  Advance(Duration::Seconds(91));
  origin_.set_available(false);
  proxy.Fetch(kRecordUrl);    // outage, copy on device: offline serve
  // Outage and never seen: hard error.
  proxy.Fetch("https://shop.example.com/api/records/p999");
  origin_.set_available(true);
  proxy.Fetch(kRecordUrl);    // revalidates the offline-served copy

  const ProxyStats& s = proxy.stats();
  EXPECT_EQ(s.requests, 7u);
  EXPECT_EQ(s.ServedTotal(), s.requests);
  EXPECT_EQ(s.background_revalidations,
            s.background_304s + s.background_200s + s.background_errors);
}

TEST_F(ClientProxyTest, BackgroundRevalidationFailureCountsAsBackgroundError) {
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  proxy.Fetch(kRecordUrl);
  Advance(Duration::Seconds(61));  // SWR window
  origin_.set_available(false);
  // The foreground serve succeeds from the stale copy; the background
  // revalidation hits the dead origin and must not bump `errors`.
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_TRUE(r.response.ok());
  const ProxyStats& s = proxy.stats();
  EXPECT_EQ(s.swr_serves, 1u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.background_errors, 1u);
  EXPECT_EQ(s.ServedTotal(), s.requests);
}

TEST_F(ClientProxyTest, StaticBlockFetchesLikeAsset) {
  personalization::Segmenter segmenter(4);
  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/home";
  personalization::DynamicBlock block{"banner",
                                      personalization::BlockScope::kStatic};
  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  BlockResult first = proxy.FetchBlock(page, block, segmenter);
  EXPECT_EQ(first.source, ServedFrom::kOrigin);
  BlockResult second = proxy.FetchBlock(page, block, segmenter);
  EXPECT_EQ(second.source, ServedFrom::kBrowserCache);
}

// A block's fragment URL is its cache key in every tier; a trace records
// the key of each fetch.
TEST_F(ClientProxyTest, BlockFragmentKeysDistinguishBlocks) {
  obs::InMemoryTraceSink sink;
  obs::Tracer tracer(&sink);
  ClientProxy proxy = MakeProxy(SpeedKitConfig(), 1, true, &tracer);
  personalization::Segmenter segmenter(4);
  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/home";
  proxy.FetchBlock(page, {"header", personalization::BlockScope::kStatic},
                   segmenter);
  proxy.FetchBlock(page, {"footer", personalization::BlockScope::kStatic},
                   segmenter);
  ASSERT_EQ(sink.traces().size(), 2u);
  EXPECT_NE(sink.traces()[0].url, sink.traces()[1].url);
}

TEST_F(ClientProxyTest, BlockFragmentKeysIncludeSegmentId) {
  obs::InMemoryTraceSink sink;
  obs::Tracer tracer(&sink);
  ClientProxy proxy = MakeProxy(SpeedKitConfig(), 1, true, &tracer);
  personalization::Segmenter first(1, [](uint64_t) { return "seg-1"; });
  personalization::Segmenter second(1, [](uint64_t) { return "seg-2"; });
  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/home";
  personalization::DynamicBlock block{"recs",
                                      personalization::BlockScope::kSegment};
  proxy.FetchBlock(page, block, first);
  proxy.FetchBlock(page, block, second);
  ASSERT_EQ(sink.traces().size(), 2u);
  EXPECT_NE(sink.traces()[0].url, sink.traces()[1].url);
  EXPECT_NE(sink.traces()[0].url.find("seg-1"), std::string::npos);
}

}  // namespace
}  // namespace speedkit::proxy
