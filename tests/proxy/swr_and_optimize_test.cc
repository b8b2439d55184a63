// Stale-while-revalidate and asset-optimization behaviour of the client
// proxy, including the coherence argument that makes SWR safe under the
// sketch: an invalidated key is flagged and never takes the SWR path.
#include <gtest/gtest.h>

#include "coherence/protocol.h"
#include "invalidation/pipeline.h"
#include "proxy/client_proxy.h"

namespace speedkit::proxy {
namespace {

constexpr char kRecordUrl[] = "https://shop.example.com/api/records/p1";
constexpr char kAssetUrl[] = "https://shop.example.com/assets/hero.jpg";

class SwrTest : public ::testing::Test {
 protected:
  SwrTest()
      : network_(sim::NetworkConfig::Instant(), Pcg32(1)),
        events_(&clock_),
        cdn_(2),
        protocol_(Coherence()),
        ttl_policy_(Duration::Seconds(60)),  // SWR window: +30s
        origin_(origin::OriginConfig{}, &clock_, &store_, &ttl_policy_,
                &protocol_.publication()),
        pipeline_(MakePipelineConfig(), &clock_, &events_, &cdn_, &protocol_,
                  &origin_.expiry_book(), Pcg32(2)) {
    origin_.SetPipeline(&pipeline_);
    store_.Put("p1", {{"price", 10.0}}, clock_.Now());
    events_.RunUntil(clock_.Now() + Duration::Seconds(1));
  }

  // Δ = 10 s, so tests can step past a sketch refresh.
  static coherence::CoherenceConfig Coherence() {
    coherence::CoherenceConfig config;
    config.delta = Duration::Seconds(10);
    return config;
  }

  static invalidation::PipelineConfig MakePipelineConfig() {
    invalidation::PipelineConfig config;
    config.purge_log_sigma = 0.0;
    return config;
  }

  ProxyConfig Config() {
    ProxyConfig pc;
    pc.device_overhead = Duration::Zero();
    return pc;
  }

  ClientProxy MakeProxy(const ProxyConfig& pc, uint64_t id = 1) {
    ProxyDeps deps;
    deps.clock = &clock_;
    deps.network = &network_;
    deps.cdn = &cdn_;
    deps.origin = &origin_;
    deps.coherence = &protocol_;
    return ClientProxy(pc, id, deps);
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
  sketch::CacheSketch& sketch_ = *protocol_.sketch();
};

TEST_F(SwrTest, ExpiredButUnchangedEntryServedInstantly) {
  ClientProxy proxy = MakeProxy(Config());
  proxy.Fetch(kRecordUrl);
  Advance(Duration::Seconds(70));  // TTL (60) passed, SWR window (30) open
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);
  EXPECT_EQ(r.response.object_version, 1u);
  EXPECT_EQ(proxy.stats().swr_serves, 1u);
  EXPECT_EQ(proxy.stats().background_revalidations, 1u);
}

TEST_F(SwrTest, BackgroundRevalidationRestoresFreshness) {
  ClientProxy proxy = MakeProxy(Config());
  proxy.Fetch(kRecordUrl);
  Advance(Duration::Seconds(70));
  proxy.Fetch(kRecordUrl);  // SWR serve + background 304
  // The background revalidation refreshed the entry: a plain fresh hit.
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);
  EXPECT_EQ(proxy.stats().swr_serves, 1u);  // no second SWR serve
  EXPECT_EQ(proxy.stats().browser_hits, 1u);
}

TEST_F(SwrTest, FlaggedKeyNeverTakesSwrPath) {
  ClientProxy proxy = MakeProxy(Config());
  proxy.Fetch(kRecordUrl);  // v1
  Advance(Duration::Seconds(70));  // entry in SWR window
  store_.Update("p1", {{"price", 12.0}}, clock_.Now());  // v2 -> flagged
  Advance(Duration::Seconds(10));  // refresh due; purges done
  FetchResult r = proxy.Fetch(kRecordUrl);
  // Correctness over speed: the flagged key is revalidated, not SWR-served.
  EXPECT_TRUE(r.sketch_bypass);
  EXPECT_EQ(r.response.object_version, 2u);
  EXPECT_EQ(proxy.stats().swr_serves, 0u);
}

TEST_F(SwrTest, BeyondSwrWindowRevalidatesOnCriticalPath) {
  ClientProxy proxy = MakeProxy(Config());
  proxy.Fetch(kRecordUrl);
  Advance(Duration::Seconds(95));  // past TTL + SWR
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_TRUE(r.revalidated);
  EXPECT_EQ(proxy.stats().swr_serves, 0u);
}

TEST_F(SwrTest, SwrDisabledByConfig) {
  ProxyConfig pc = Config();
  pc.stale_while_revalidate = false;
  ClientProxy proxy = MakeProxy(pc);
  proxy.Fetch(kRecordUrl);
  Advance(Duration::Seconds(70));
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_TRUE(r.revalidated);
  EXPECT_EQ(proxy.stats().swr_serves, 0u);
}

TEST_F(SwrTest, SwrRespectsDeltaAtomicityViaExpiryBook) {
  // The served copy can live until TTL+SWR, so the sketch must hold the
  // key at least that long after a write.
  ClientProxy proxy = MakeProxy(Config());
  proxy.Fetch(kRecordUrl);  // copies out until t+90s
  store_.Update("p1", {{"price", 11.0}}, clock_.Now());
  std::string key = http::Url::Parse(kRecordUrl)->CacheKey();
  sketch_.ExpireUntil(clock_.Now() + Duration::Seconds(89));
  EXPECT_TRUE(sketch_.Contains(key));
  sketch_.ExpireUntil(clock_.Now() + Duration::Seconds(91));
  EXPECT_FALSE(sketch_.Contains(key));
}

TEST_F(SwrTest, AssetRequestsRewrittenToOptimizedVariant) {
  ClientProxy proxy = MakeProxy(Config());
  FetchResult r = proxy.Fetch(kAssetUrl);
  ASSERT_TRUE(r.response.ok());
  EXPECT_NE(r.response.body.ToString().find("asset-optimized:"), std::string::npos);
  size_t optimized_size = r.response.body.size();
  EXPECT_LT(optimized_size, origin::kAssetBytes);
  EXPECT_NEAR(static_cast<double>(optimized_size),
              origin::kAssetBytes * origin::kOptimizedAssetFactor, 16.0);
}

TEST_F(SwrTest, OptimizedVariantIsCachedUnderItsOwnKey) {
  ClientProxy proxy = MakeProxy(Config());
  proxy.Fetch(kAssetUrl);
  FetchResult r = proxy.Fetch(kAssetUrl);
  EXPECT_EQ(r.source, ServedFrom::kBrowserCache);
  EXPECT_NE(r.response.body.ToString().find("asset-optimized:"), std::string::npos);
}

TEST_F(SwrTest, OptimizationOffFetchesOriginal) {
  ProxyConfig pc = Config();
  pc.optimize_assets = false;
  ClientProxy proxy = MakeProxy(pc);
  FetchResult r = proxy.Fetch(kAssetUrl);
  ASSERT_TRUE(r.response.ok());
  EXPECT_EQ(r.response.body.ToString().find("asset-optimized:"), std::string::npos);
  EXPECT_EQ(r.response.body.size(), origin::kAssetBytes);
}

TEST_F(SwrTest, NonAssetUrlsNeverRewritten) {
  ClientProxy proxy = MakeProxy(Config());
  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.response.body.ToString().find("skopt"), std::string::npos);
  // Cache key is the original record URL.
  EXPECT_NE(proxy.browser_cache()
                .Lookup(http::Url::Parse(kRecordUrl)->CacheKey(),
                        clock_.Now())
                .entry,
            nullptr);
}

TEST_F(SwrTest, DisabledProxyDoesNotRewrite) {
  ProxyConfig pc;
  pc.enabled = false;
  ClientProxy proxy = MakeProxy(pc);
  FetchResult r = proxy.Fetch(kAssetUrl);
  ASSERT_TRUE(r.response.ok());
  EXPECT_EQ(r.response.body.ToString().find("asset-optimized:"), std::string::npos);
}

}  // namespace
}  // namespace speedkit::proxy
