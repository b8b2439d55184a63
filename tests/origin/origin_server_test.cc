#include "origin/origin_server.h"

#include <gtest/gtest.h>

#include "coherence/sketch_publication.h"
#include "invalidation/pipeline.h"

namespace speedkit::origin {
namespace {

http::HttpRequest Get(std::string_view url) {
  return http::HttpRequest::Get(*http::Url::Parse(url));
}

class OriginServerTest : public ::testing::Test {
 protected:
  OriginServerTest()
      : ttl_policy_(Duration::Seconds(60)),
        publication_(&sketch_),
        server_(OriginConfig{}, &clock_, &store_, &ttl_policy_,
                &publication_) {
    store_.Put("p1",
               {{"category", static_cast<int64_t>(1)}, {"price", 10.0}},
               clock_.Now());
    store_.Put("p2",
               {{"category", static_cast<int64_t>(2)}, {"price", 20.0}},
               clock_.Now());
    invalidation::Query q;
    q.id = "cat-1";
    q.conditions.push_back(
        {"category", invalidation::Op::kEq, static_cast<int64_t>(1)});
    EXPECT_TRUE(server_.RegisterQuery(q).ok());
  }

  sim::SimClock clock_;
  storage::ObjectStore store_;
  ttl::FixedTtlPolicy ttl_policy_;
  sketch::CacheSketch sketch_;
  coherence::SketchPublication publication_;
  OriginServer server_;
};

TEST_F(OriginServerTest, ServesRecordWithTtlAndETag) {
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/records/p1"));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.object_version, 1u);
  EXPECT_EQ(resp.ETag(), "\"v1\"");
  EXPECT_NE(resp.body.ToString().find("\"id\":\"p1\""), std::string::npos);
  http::CacheControl cc = resp.GetCacheControl();
  EXPECT_TRUE(cc.is_public);
  EXPECT_EQ(cc.max_age.value(), Duration::Seconds(60));
}

TEST_F(OriginServerTest, MissingRecordIs404) {
  EXPECT_EQ(
      server_.Handle(Get("https://shop.example.com/api/records/ghost"))
          .status_code,
      404);
}

TEST_F(OriginServerTest, ConditionalRequestYields304) {
  http::HttpRequest req = Get("https://shop.example.com/api/records/p1");
  req.headers.Set("If-None-Match", "\"v1\"");
  http::HttpResponse resp = server_.Handle(req);
  EXPECT_TRUE(resp.IsNotModified());
  EXPECT_TRUE(resp.body.empty());
  EXPECT_EQ(server_.stats().not_modified, 1u);
  // Freshness headers are replayed for lifetime extension.
  EXPECT_EQ(resp.GetCacheControl().max_age.value(), Duration::Seconds(60));
}

TEST_F(OriginServerTest, StaleValidatorGetsFullResponse) {
  store_.Update("p1", {{"price", 11.0}}, clock_.Now());  // v2
  http::HttpRequest req = Get("https://shop.example.com/api/records/p1");
  req.headers.Set("If-None-Match", "\"v1\"");
  http::HttpResponse resp = server_.Handle(req);
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_EQ(resp.object_version, 2u);
}

TEST_F(OriginServerTest, QueryResultListsMatchingRecords) {
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/queries/cat-1"));
  EXPECT_TRUE(resp.ok());
  EXPECT_NE(resp.body.ToString().find("\"id\":\"p1\""), std::string::npos);
  EXPECT_EQ(resp.body.ToString().find("\"id\":\"p2\""), std::string::npos);
}

TEST_F(OriginServerTest, QueryResultVersionBumpsOnMembershipChange) {
  http::HttpResponse before =
      server_.Handle(Get("https://shop.example.com/api/queries/cat-1"));
  // Move p2 into category 1.
  store_.Update("p2", {{"category", static_cast<int64_t>(1)}}, clock_.Now());
  http::HttpResponse after =
      server_.Handle(Get("https://shop.example.com/api/queries/cat-1"));
  EXPECT_GT(after.object_version, before.object_version);
  EXPECT_NE(after.body.ToString().find("\"id\":\"p2\""), std::string::npos);
}

TEST_F(OriginServerTest, QueryResultUnaffectedByIrrelevantWrite) {
  http::HttpResponse before =
      server_.Handle(Get("https://shop.example.com/api/queries/cat-1"));
  store_.Update("p2", {{"price", 25.0}}, clock_.Now());  // stays in cat 2
  http::HttpResponse after =
      server_.Handle(Get("https://shop.example.com/api/queries/cat-1"));
  EXPECT_EQ(after.object_version, before.object_version);
}

TEST_F(OriginServerTest, DeleteRemovesFromQueryResult) {
  ASSERT_TRUE(store_.Delete("p1", clock_.Now()).ok());
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/queries/cat-1"));
  EXPECT_EQ(resp.body.ToString().find("\"id\":\"p1\""), std::string::npos);
}

TEST_F(OriginServerTest, DuplicateQueryRegistrationFails) {
  invalidation::Query q;
  q.id = "cat-1";
  EXPECT_EQ(server_.RegisterQuery(q).code(), StatusCode::kAlreadyExists);
}

TEST_F(OriginServerTest, AssetsAreLongLivedAndSized) {
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/assets/app.css"));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.body.size(), kAssetBytes);
  EXPECT_EQ(resp.GetCacheControl().max_age.value(), kAssetTtl);
}

TEST_F(OriginServerTest, ShellsUsePolicyTtlCappedByShellTtl) {
  // Fixture policy: 60s, below the 300s shell cap -> policy wins.
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/pages/home"));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.GetCacheControl().max_age.value(), Duration::Seconds(60));
}

TEST_F(OriginServerTest, ShellTtlCapsLongPolicies) {
  ttl::FixedTtlPolicy long_policy(Duration::Seconds(86400));
  OriginServer server(OriginConfig{}, &clock_, &store_, &long_policy,
                      nullptr);
  http::HttpResponse resp =
      server.Handle(Get("https://shop.example.com/pages/home"));
  EXPECT_EQ(resp.GetCacheControl().max_age.value(), kShellTtl);
}

TEST_F(OriginServerTest, NoCachePolicyMakesShellsUncacheable) {
  ttl::NoCachePolicy no_cache;
  OriginServer server(OriginConfig{}, &clock_, &store_, &no_cache, nullptr);
  http::HttpResponse resp =
      server.Handle(Get("https://shop.example.com/pages/home"));
  http::CacheControl cc = resp.GetCacheControl();
  EXPECT_TRUE(cc.no_cache);
  EXPECT_EQ(cc.max_age.value(), Duration::Zero());
}

TEST_F(OriginServerTest, SegmentFragmentIsCacheable) {
  http::HttpResponse resp = server_.Handle(
      Get("https://shop.example.com/api/fragments/recs?seg=seg-3"));
  EXPECT_TRUE(resp.ok());
  EXPECT_TRUE(resp.GetCacheControl().Storable(true));
  EXPECT_NE(resp.body.ToString().find("seg-3"), std::string::npos);
}

TEST_F(OriginServerTest, TemplateFragmentHasPlaceholders) {
  http::HttpResponse resp = server_.Handle(
      Get("https://shop.example.com/api/fragments/cart?tpl=1"));
  EXPECT_TRUE(resp.ok());
  EXPECT_NE(resp.body.ToString().find("{{name}}"), std::string::npos);
  EXPECT_TRUE(resp.GetCacheControl().Storable(true));
}

TEST_F(OriginServerTest, UserFragmentIsNeverCacheable) {
  http::HttpResponse resp = server_.Handle(
      Get("https://shop.example.com/api/fragments/cart?user=777"));
  EXPECT_TRUE(resp.ok());
  http::CacheControl cc = resp.GetCacheControl();
  EXPECT_TRUE(cc.no_store);
  EXPECT_FALSE(cc.Storable(false));
  EXPECT_NE(resp.body.ToString().find("777"), std::string::npos);
}

TEST_F(OriginServerTest, SketchEndpointServesSnapshot) {
  sketch_.ReportInvalidation("some-key", clock_.Now() + Duration::Seconds(60),
                             clock_.Now());
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/sketch"));
  EXPECT_TRUE(resp.ok());
  EXPECT_TRUE(resp.GetCacheControl().no_store);
  auto filter = sketch::BloomFilter::Deserialize(resp.body.ToString());
  ASSERT_TRUE(filter.ok());
  EXPECT_TRUE(filter->MightContain("some-key"));
}

TEST_F(OriginServerTest, ServedResponsesFeedExpiryBook) {
  std::string key = "https://shop.example.com/api/records/p1";
  server_.Handle(Get(key));
  SimTime horizon = server_.expiry_book().LatestExpiry(key, clock_.Now());
  // TTL (60s) plus the stale-while-revalidate window (50% -> 30s).
  EXPECT_EQ(horizon, clock_.Now() + Duration::Seconds(90));
}

TEST_F(OriginServerTest, UnavailableReturns503) {
  server_.set_available(false);
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/records/p1"));
  EXPECT_EQ(resp.status_code, 503);
  EXPECT_EQ(server_.stats().rejected_unavailable, 1u);
  server_.set_available(true);
  EXPECT_TRUE(
      server_.Handle(Get("https://shop.example.com/api/records/p1")).ok());
}

TEST_F(OriginServerTest, UnknownRouteIs404) {
  EXPECT_EQ(server_.Handle(Get("https://shop.example.com/nope")).status_code,
            404);
}

TEST_F(OriginServerTest, TtlObservationsFlowOnWrites) {
  // With an estimating policy, writes should register; here we just check
  // the version listener dates the bumped query result, then the record.
  std::vector<std::pair<std::string, uint64_t>> seen;
  server_.SetVersionListener([&](const std::string& key, uint64_t version) {
    seen.emplace_back(key, version);
  });
  store_.Update("p1", {{"price", 99.0}}, clock_.Now());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, invalidation::QueryCacheKey("cat-1"));
  EXPECT_GT(seen[0].second, 1u);
  EXPECT_EQ(seen[1], std::make_pair(invalidation::RecordCacheKey("p1"),
                                    uint64_t{2}));
}

}  // namespace
}  // namespace speedkit::origin
