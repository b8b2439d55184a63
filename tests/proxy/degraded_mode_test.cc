// Degraded-mode behaviour of the client proxy under injected faults:
// timeouts + bounded retries, pass-through reroute when the edge path is
// unreachable, stale-if-error at the edge, and the offline cache as the
// last resort — with the stats reconciliation invariant intact throughout.
#include <gtest/gtest.h>

#include "coherence/protocol.h"
#include "invalidation/pipeline.h"
#include "proxy/client_proxy.h"
#include "sim/fault_schedule.h"

namespace speedkit::proxy {
namespace {

constexpr char kRecordUrl[] = "https://shop.example.com/api/records/p1";

// Same harness as client_proxy_test, plus a fault schedule the tests can
// arm on the network. The harness settles 1s, so traffic starts at t=1s.
class DegradedModeTest : public ::testing::Test {
 protected:
  DegradedModeTest()
      : network_(sim::NetworkConfig::Instant(), Pcg32(1)),
        events_(&clock_),
        cdn_(2),
        protocol_(Coherence()),
        ttl_policy_(Duration::Seconds(60)),
        origin_(origin::OriginConfig{}, &clock_, &store_, &ttl_policy_,
                &protocol_.publication()),
        pipeline_(PipelineConfig(), &clock_, &events_, &cdn_, &protocol_,
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
                        bool with_sketch = true) {
    ProxyDeps deps;
    deps.clock = &clock_;
    deps.network = &network_;
    deps.cdn = &cdn_;
    deps.origin = &origin_;
    deps.coherence = with_sketch ? &protocol_ : nullptr;
    return ClientProxy(pc, id, deps);
  }

  void AttachFaults(const sim::FaultScheduleConfig& config) {
    faults_ = config;
    network_.SetFaults(&faults_);
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
  sim::FaultScheduleConfig faults_;
};

TEST_F(DegradedModeTest, ClientEdgeLinkDownFallsBackToPassThrough) {
  sim::FaultScheduleConfig fc;
  fc.client_edge.loss_probability = 1.0;
  AttachFaults(fc);

  // No sketch: keep sketch-refresh traffic out of the counters.
  ClientProxy proxy = MakeProxy(SpeedKitConfig(), 1, /*with_sketch=*/false);
  FetchResult r = proxy.Fetch(kRecordUrl);

  // Edge path exhausted its attempts, then the reroute to the original
  // site succeeded.
  EXPECT_TRUE(r.response.ok());
  EXPECT_EQ(r.source, ServedFrom::kOrigin);
  const ProxyStats& s = proxy.stats();
  EXPECT_EQ(s.fallback_serves, 1u);
  EXPECT_EQ(s.timeouts, 3u);  // initial attempt + kMaxRetries (2)
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.origin_fetches, 1u);
  EXPECT_EQ(s.ServedTotal(), s.requests);
}

TEST_F(DegradedModeTest, EdgeNodeOutageReroutesWithoutRetries) {
  int edge = cdn_.RouteFor(1);
  cdn_.SetEdgeDown(edge, true);

  ClientProxy proxy = MakeProxy(SpeedKitConfig(), 1, /*with_sketch=*/false);
  FetchResult r = proxy.Fetch(kRecordUrl);

  // A down edge is detected before any network attempt: no timeouts, just
  // the reroute.
  EXPECT_EQ(r.source, ServedFrom::kOrigin);
  const ProxyStats& s = proxy.stats();
  EXPECT_EQ(s.fallback_serves, 1u);
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(cdn_.edge_fault_stats(edge).down_rejects, 1u);
  EXPECT_EQ(s.ServedTotal(), s.requests);
}

TEST_F(DegradedModeTest, TotalOutageServesOfflineCopy) {
  ProxyConfig pc = SpeedKitConfig();
  pc.stale_while_revalidate = false;  // force the expired copy to the network
  ClientProxy proxy = MakeProxy(pc, 1, /*with_sketch=*/false);
  proxy.Fetch(kRecordUrl);  // t=1s: browser copy, TTL 60s

  sim::FaultScheduleConfig fc;
  fc.client_edge.loss_probability = 1.0;
  fc.client_origin.loss_probability = 1.0;
  AttachFaults(fc);
  Advance(Duration::Seconds(61));  // copy expired, both links dead

  FetchResult r = proxy.Fetch(kRecordUrl);
  EXPECT_EQ(r.source, ServedFrom::kOfflineCache);
  EXPECT_TRUE(r.response.ok());
  const ProxyStats& s = proxy.stats();
  EXPECT_EQ(s.offline_serves, 1u);
  // One degraded serve, even though two legs (edge, then direct) failed.
  EXPECT_EQ(s.fallback_serves, 1u);
  EXPECT_EQ(s.timeouts, 6u);  // 3 per failed leg
  EXPECT_EQ(s.retries, 4u);   // 2 per failed leg
  EXPECT_EQ(s.ServedTotal(), s.requests);
}

TEST_F(DegradedModeTest, UpstreamFailureServesStaleEdgeCopy) {
  ClientProxy a = MakeProxy(SpeedKitConfig(), 1);
  a.Fetch(kRecordUrl);  // t=1s: the edge now holds a copy, TTL 60s
  sim::FaultScheduleConfig fc;
  fc.edge_origin.loss_probability = 1.0;
  AttachFaults(fc);
  Advance(Duration::Seconds(61));  // edge copy stale, upstream link dead

  uint64_t same_edge_id = 2;
  while (cdn_.RouteFor(same_edge_id) != cdn_.RouteFor(1)) ++same_edge_id;
  ClientProxy b =
      MakeProxy(SpeedKitConfig(), same_edge_id, /*with_sketch=*/false);

  // The edge's revalidation cannot reach the origin; the stale copy is
  // served rather than failing the request (stale-if-error).
  FetchResult r = b.Fetch(kRecordUrl);
  EXPECT_TRUE(r.response.ok());
  EXPECT_EQ(r.source, ServedFrom::kEdgeCache);
  const ProxyStats& s = b.stats();
  EXPECT_EQ(s.edge_hits, 1u);
  EXPECT_EQ(s.fallback_serves, 1u);
  EXPECT_EQ(s.ServedTotal(), s.requests);
}

TEST_F(DegradedModeTest, ServedTotalReconcilesUnderLossyLinks) {
  sim::FaultScheduleConfig fc;
  fc.client_edge.loss_probability = 0.3;
  fc.client_origin.loss_probability = 0.3;
  fc.edge_origin.loss_probability = 0.3;
  AttachFaults(fc);

  ClientProxy proxy = MakeProxy(SpeedKitConfig());
  for (int i = 0; i < 40; ++i) {
    proxy.Fetch(kRecordUrl);
    Advance(Duration::Seconds(5));
  }
  const ProxyStats& s = proxy.stats();
  EXPECT_EQ(s.requests, 40u);
  EXPECT_EQ(s.ServedTotal(), s.requests);
  // With 30% loss per attempt, some timeouts (and retries that recovered)
  // must have occurred.
  EXPECT_GT(s.timeouts, 0u);
  EXPECT_GT(s.retries, 0u);
}

}  // namespace
}  // namespace speedkit::proxy
