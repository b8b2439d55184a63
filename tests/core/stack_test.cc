#include "core/stack.h"

#include <gtest/gtest.h>

namespace speedkit::core {
namespace {

TEST(StackTest, SpeedKitVariantWiresEverything) {
  StackConfig config;
  SpeedKitStack stack(config);
  EXPECT_NE(stack.sketch(), nullptr);
  EXPECT_NE(stack.pipeline(), nullptr);
  EXPECT_EQ(stack.cdn().num_edges(), config.cdn_edges);
  proxy::ProxyConfig pc = stack.DefaultProxyConfig();
  EXPECT_TRUE(pc.enabled);
  EXPECT_TRUE(pc.use_sketch);
  EXPECT_TRUE(pc.use_cdn);
  EXPECT_EQ(pc.sketch_refresh_interval, config.coherence.delta);
}

TEST(StackTest, FixedTtlCdnHasNoCoherence) {
  StackConfig config;
  config.variant = SystemVariant::kFixedTtlCdn;
  SpeedKitStack stack(config);
  EXPECT_EQ(stack.sketch(), nullptr);
  EXPECT_EQ(stack.pipeline(), nullptr);
  EXPECT_FALSE(stack.DefaultProxyConfig().use_sketch);
}

TEST(StackTest, NoCachingDisablesEverything) {
  StackConfig config;
  config.variant = SystemVariant::kNoCaching;
  SpeedKitStack stack(config);
  proxy::ProxyConfig pc = stack.DefaultProxyConfig();
  EXPECT_FALSE(pc.enabled);
  EXPECT_FALSE(pc.use_cdn);
  EXPECT_EQ(pc.browser_cache_bytes, 1u);
}

TEST(StackTest, PureInvalidationKeepsPipelineDropsSketch) {
  StackConfig config;
  config.variant = SystemVariant::kPureInvalidation;
  SpeedKitStack stack(config);
  EXPECT_EQ(stack.sketch(), nullptr);
  EXPECT_NE(stack.pipeline(), nullptr);
  EXPECT_FALSE(stack.DefaultProxyConfig().use_sketch);
}

TEST(StackTest, VariantNames) {
  EXPECT_EQ(SystemVariantName(SystemVariant::kSpeedKit), "speed_kit");
  EXPECT_EQ(SystemVariantName(SystemVariant::kFixedTtlCdn), "fixed_ttl_cdn");
  EXPECT_EQ(SystemVariantName(SystemVariant::kNoCaching), "no_caching");
  EXPECT_EQ(SystemVariantName(SystemVariant::kPureInvalidation),
            "pure_invalidation");
}

TEST(StackTest, WritesFlowIntoStalenessTracker) {
  StackConfig config;
  SpeedKitStack stack(config);
  stack.store().Put("p1", {{"price", 10.0}}, stack.clock().Now());
  stack.store().Update("p1", {{"price", 11.0}}, stack.clock().Now());
  // Reading v1 after v2 exists counts as stale.
  stack.staleness().RecordRead(invalidation::RecordCacheKey("p1"), 1,
                               stack.clock().Now());
  EXPECT_EQ(stack.staleness().report().stale_reads, 1u);
}

TEST(StackTest, WritesFlowIntoSketchViaPipeline) {
  StackConfig config;
  SpeedKitStack stack(config);
  std::string key = invalidation::RecordCacheKey("p1");
  stack.store().Put("p1", {{"price", 10.0}}, stack.clock().Now());
  // Serve once so the expiry book knows copies are outstanding.
  stack.origin().Handle(http::HttpRequest::Get(*http::Url::Parse(key)));
  stack.store().Update("p1", {{"price", 11.0}}, stack.clock().Now());
  EXPECT_TRUE(stack.sketch()->Contains(key));
}

TEST(StackTest, RegisteredQueryIsInvalidatedWithoutWatchQuery) {
  StackConfig config;
  SpeedKitStack stack(config);
  stack.store().Put("p1", {{"category", int64_t{1}}, {"price", 10.0}},
                    stack.clock().Now());
  invalidation::Query q;
  q.id = "cat-1";
  q.conditions.push_back({"category", invalidation::Op::kEq, int64_t{1}});
  // Registering with the origin is the only step.
  ASSERT_TRUE(stack.origin().RegisterQuery(q).ok());
  stack.Advance(Duration::Seconds(5));
  uint64_t invalidated = stack.pipeline()->stats().keys_invalidated;
  stack.store().Update("p1", {{"price", 11.0}}, stack.clock().Now());
  EXPECT_TRUE(stack.sketch()->Contains(invalidation::QueryCacheKey("cat-1")));
  // The record's key and the listing's.
  EXPECT_EQ(stack.pipeline()->stats().keys_invalidated, invalidated + 2);
}

TEST(StackTest, AdvanceRunsScheduledPurges) {
  StackConfig config;
  SpeedKitStack stack(config);
  std::string key = invalidation::RecordCacheKey("p1");
  stack.store().Put("p1", {{"price", 10.0}}, stack.clock().Now());
  // Seed an edge with the response.
  http::HttpResponse resp =
      stack.origin().Handle(http::HttpRequest::Get(*http::Url::Parse(key)));
  stack.cdn().edge(0).Store(key, resp, stack.clock().Now());
  stack.store().Update("p1", {{"price", 11.0}}, stack.clock().Now());
  stack.Advance(Duration::Seconds(5));
  EXPECT_EQ(stack.cdn().edge(0).Lookup(key, stack.clock().Now()).outcome,
            cache::LookupOutcome::kMiss);
}

TEST(StackTest, DeterministicAcrossRuns) {
  auto run = [] {
    StackConfig config;
    config.seed = 99;
    SpeedKitStack stack(config);
    auto client = stack.MakeClient(1);
    stack.store().Put("p1", {{"price", 10.0}}, stack.clock().Now());
    auto r = client->Fetch(invalidation::RecordCacheKey("p1"));
    return r.latency.micros();
  };
  EXPECT_EQ(run(), run());
}

TEST(StackTest, MakeClientUsesVariantDefaults) {
  StackConfig config;
  config.variant = SystemVariant::kNoCaching;
  SpeedKitStack stack(config);
  auto client = stack.MakeClient(1);
  EXPECT_FALSE(client->config().enabled);
}

TEST(StackTest, OriginOutageWindowTogglesAvailability) {
  StackConfig config;
  sim::FaultWindow window;
  window.start = SimTime::Origin() + Duration::Seconds(10);
  window.end = SimTime::Origin() + Duration::Seconds(20);
  config.faults.origin = {window};
  SpeedKitStack stack(config);

  EXPECT_TRUE(stack.origin().available());
  stack.AdvanceTo(SimTime::Origin() + Duration::Seconds(15));
  EXPECT_FALSE(stack.origin().available());
  stack.AdvanceTo(SimTime::Origin() + Duration::Seconds(21));
  EXPECT_TRUE(stack.origin().available());
}

TEST(StackTest, EdgeOutageWindowTogglesEdgeAvailability) {
  StackConfig config;
  sim::FaultWindow window;
  window.start = SimTime::Origin() + Duration::Seconds(10);
  window.end = SimTime::Origin() + Duration::Seconds(20);
  config.faults.edges = {{window}};  // edge 0 only
  SpeedKitStack stack(config);

  EXPECT_TRUE(stack.cdn().EdgeAvailable(0));
  stack.AdvanceTo(SimTime::Origin() + Duration::Seconds(15));
  EXPECT_FALSE(stack.cdn().EdgeAvailable(0));
  EXPECT_TRUE(stack.cdn().EdgeAvailable(1));  // unscheduled edges unaffected
  stack.AdvanceTo(SimTime::Origin() + Duration::Seconds(21));
  EXPECT_TRUE(stack.cdn().EdgeAvailable(0));
}

}  // namespace
}  // namespace speedkit::core
