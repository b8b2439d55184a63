// The origin's version-keyed render cache (the polyglot architecture's
// server-side cache tier): saves render time, can never serve stale (the
// key includes the content version).
#include <gtest/gtest.h>

#include "origin/origin_server.h"

namespace speedkit::origin {
namespace {

http::HttpRequest Get(std::string_view url) {
  return http::HttpRequest::Get(*http::Url::Parse(url));
}

class RenderCacheTest : public ::testing::Test {
 protected:
  RenderCacheTest()
      : ttl_policy_(Duration::Seconds(60)),
        server_(OriginConfig{}, &clock_, &store_, &ttl_policy_, nullptr) {
    store_.Put("p1", {{"price", 10.0}}, clock_.Now());
  }

  sim::SimClock clock_;
  storage::ObjectStore store_;
  ttl::FixedTtlPolicy ttl_policy_;
  OriginServer server_;
};

TEST_F(RenderCacheTest, FirstRenderChargesFullCost) {
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/records/p1"));
  EXPECT_EQ(resp.server_time, kRecordRenderTime);
  EXPECT_EQ(server_.stats().render_cache_misses, 1u);
  EXPECT_EQ(server_.stats().render_cache_hits, 0u);
}

TEST_F(RenderCacheTest, RepeatRenderIsCheap) {
  server_.Handle(Get("https://shop.example.com/api/records/p1"));
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/records/p1"));
  EXPECT_EQ(resp.server_time, kRenderCacheHitTime);
  EXPECT_EQ(server_.stats().render_cache_hits, 1u);
  EXPECT_GT(server_.stats().render_time_saved_us, 0);
}

TEST_F(RenderCacheTest, WriteInvalidatesByVersion) {
  server_.Handle(Get("https://shop.example.com/api/records/p1"));
  store_.Update("p1", {{"price", 12.0}}, clock_.Now());  // v2
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/records/p1"));
  // New version: full render again — the cache cannot serve stale.
  EXPECT_EQ(resp.server_time, kRecordRenderTime);
  EXPECT_EQ(resp.object_version, 2u);
  EXPECT_EQ(server_.stats().render_cache_misses, 2u);
}

TEST_F(RenderCacheTest, NotModifiedChargesValidationCost) {
  server_.Handle(Get("https://shop.example.com/api/records/p1"));
  http::HttpRequest req = Get("https://shop.example.com/api/records/p1");
  req.headers.Set("If-None-Match", "\"v1\"");
  http::HttpResponse resp = server_.Handle(req);
  ASSERT_TRUE(resp.IsNotModified());
  EXPECT_EQ(resp.server_time, kRenderCacheHitTime);
}

TEST_F(RenderCacheTest, RouteClassesHaveDistinctCosts) {
  EXPECT_EQ(server_.Handle(Get("https://shop.example.com/assets/a.css"))
                .server_time,
            kAssetRenderTime);
  EXPECT_EQ(server_.Handle(Get("https://shop.example.com/pages/home"))
                .server_time,
            kShellRenderTime);
  EXPECT_EQ(server_
                .Handle(Get(
                    "https://shop.example.com/api/fragments/recs?seg=s1"))
                .server_time,
            kFragmentRenderTime);
}

TEST_F(RenderCacheTest, DisabledCacheAlwaysRenders) {
  OriginConfig config;
  config.render_cache_entries = 0;
  OriginServer server(config, &clock_, &store_, &ttl_policy_, nullptr);
  server.Handle(Get("https://shop.example.com/api/records/p1"));
  http::HttpResponse resp =
      server.Handle(Get("https://shop.example.com/api/records/p1"));
  EXPECT_EQ(resp.server_time, kRecordRenderTime);
  EXPECT_EQ(server.stats().render_cache_hits, 0u);
}

TEST_F(RenderCacheTest, QueriesUseResultVersionAsKey) {
  invalidation::Query q;
  q.id = "all";
  ASSERT_TRUE(server_.RegisterQuery(q).ok());
  std::string url = "https://shop.example.com/api/queries/all";
  server_.Handle(Get(url));
  EXPECT_EQ(server_.Handle(Get(url)).server_time, kRenderCacheHitTime);
  // Unrelated-to-result write: version stays, cache stays warm... but p1
  // IS in "all" (matches everything), so this write invalidates.
  store_.Update("p1", {{"price", 99.0}}, clock_.Now());
  EXPECT_EQ(server_.Handle(Get(url)).server_time, kQueryRenderTime);
}

}  // namespace
}  // namespace speedkit::origin
