// Ordered, limited query results at the origin (InvaliDB-style sorted
// queries): exact top-k maintenance under writes, with result versions
// bumping precisely when the visible slice changes.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "origin/origin_server.h"

namespace speedkit::origin {
namespace {

http::HttpRequest Get(std::string_view url) {
  return http::HttpRequest::Get(*http::Url::Parse(url));
}

class SortedQueryTest : public ::testing::Test {
 protected:
  SortedQueryTest()
      : ttl_policy_(Duration::Seconds(60)),
        server_(OriginConfig{}, &clock_, &store_, &ttl_policy_, nullptr) {
    // Five products in category 1 with distinct prices.
    for (int i = 0; i < 5; ++i) {
      store_.Put(StrFormat("p%d", i),
                 {{"category", static_cast<int64_t>(1)},
                  {"price", 10.0 * (i + 1)}},  // p0=10 ... p4=50
                 clock_.Now());
    }
    invalidation::Query q;
    q.id = "cheapest3";
    q.conditions.push_back(
        {"category", invalidation::Op::kEq, static_cast<int64_t>(1)});
    q.order_by = "price";
    q.limit = 3;
    EXPECT_TRUE(server_.RegisterQuery(q).ok());
  }

  // Extracts the id sequence from the rendered result body.
  std::vector<std::string> ResultIds() {
    http::HttpResponse resp =
        server_.Handle(Get("https://shop.example.com/api/queries/cheapest3"));
    const std::string body = resp.body.ToString();
    std::vector<std::string> ids;
    size_t pos = 0;
    while ((pos = body.find("\"id\":\"", pos)) != std::string::npos) {
      pos += 6;
      size_t end = body.find('"', pos);
      ids.emplace_back(body.substr(pos, end - pos));
    }
    return ids;
  }

  uint64_t ResultVersion() {
    return server_
        .Handle(Get("https://shop.example.com/api/queries/cheapest3"))
        .object_version;
  }

  sim::SimClock clock_;
  storage::ObjectStore store_;
  ttl::FixedTtlPolicy ttl_policy_;
  OriginServer server_;
};

TEST_F(SortedQueryTest, InitialTopKInPriceOrder) {
  EXPECT_EQ(ResultIds(), (std::vector<std::string>{"p0", "p1", "p2"}));
}

TEST_F(SortedQueryTest, DisplacementIntoTopK) {
  uint64_t v = ResultVersion();
  // p4 (50 -> 5) becomes the cheapest.
  store_.Update("p4", {{"price", 5.0}}, clock_.Now());
  EXPECT_EQ(ResultIds(), (std::vector<std::string>{"p4", "p0", "p1"}));
  EXPECT_GT(ResultVersion(), v);
}

TEST_F(SortedQueryTest, WriteOutsideTopKDoesNotBumpVersion) {
  uint64_t v = ResultVersion();
  // p4 (rank 5) gets cheaper but stays outside the top 3.
  store_.Update("p4", {{"price", 45.0}}, clock_.Now());
  EXPECT_EQ(ResultVersion(), v);
  EXPECT_EQ(ResultIds(), (std::vector<std::string>{"p0", "p1", "p2"}));
}

TEST_F(SortedQueryTest, InPlaceChangeInsideTopKBumpsVersion) {
  uint64_t v = ResultVersion();
  // p1 stays rank 2 but its rendered price changes.
  store_.Update("p1", {{"price", 21.0}}, clock_.Now());
  EXPECT_EQ(ResultIds(), (std::vector<std::string>{"p0", "p1", "p2"}));
  EXPECT_GT(ResultVersion(), v);
}

TEST_F(SortedQueryTest, LeavingPredicatePullsUpSuccessor) {
  store_.Update("p0", {{"category", static_cast<int64_t>(9)}}, clock_.Now());
  EXPECT_EQ(ResultIds(), (std::vector<std::string>{"p1", "p2", "p3"}));
}

TEST_F(SortedQueryTest, DeleteRemovesFromSlice) {
  ASSERT_TRUE(store_.Delete("p1", clock_.Now()).ok());
  EXPECT_EQ(ResultIds(), (std::vector<std::string>{"p0", "p2", "p3"}));
}

TEST_F(SortedQueryTest, DescendingOrder) {
  invalidation::Query q;
  q.id = "priciest2";
  q.conditions.push_back(
      {"category", invalidation::Op::kEq, static_cast<int64_t>(1)});
  q.order_by = "price";
  q.descending = true;
  q.limit = 2;
  ASSERT_TRUE(server_.RegisterQuery(q).ok());
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/queries/priciest2"));
  EXPECT_NE(resp.body.ToString().find("\"id\":\"p4\""), std::string::npos);
  EXPECT_NE(resp.body.ToString().find("\"id\":\"p3\""), std::string::npos);
  EXPECT_EQ(resp.body.ToString().find("\"id\":\"p2\""), std::string::npos);
  EXPECT_LT(resp.body.ToString().find("\"id\":\"p4\""), resp.body.ToString().find("\"id\":\"p3\""));
}

TEST_F(SortedQueryTest, MissingSortFieldSortsFirst) {
  store_.Put("p9", {{"category", static_cast<int64_t>(1)}}, clock_.Now());
  EXPECT_EQ(ResultIds()[0], "p9");  // NULLS FIRST
}

TEST_F(SortedQueryTest, UnlimitedOrderedQueryReturnsAllSorted) {
  invalidation::Query q;
  q.id = "all-sorted";
  q.conditions.push_back(
      {"category", invalidation::Op::kEq, static_cast<int64_t>(1)});
  q.order_by = "price";
  ASSERT_TRUE(server_.RegisterQuery(q).ok());
  http::HttpResponse resp =
      server_.Handle(Get("https://shop.example.com/api/queries/all-sorted"));
  size_t p0 = resp.body.ToString().find("\"id\":\"p0\"");
  size_t p4 = resp.body.ToString().find("\"id\":\"p4\"");
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p4, std::string::npos);
  EXPECT_LT(p0, p4);
}

TEST_F(SortedQueryTest, TieBreakIsById) {
  store_.Put("pa", {{"category", static_cast<int64_t>(1)}, {"price", 10.0}},
             clock_.Now());
  // p0 and pa both cost 10: p0 < pa lexicographically.
  auto ids = ResultIds();
  ASSERT_GE(ids.size(), 2u);
  EXPECT_EQ(ids[0], "p0");
  EXPECT_EQ(ids[1], "pa");
}

TEST(SortedQueryToStringTest, MentionsOrderAndLimit) {
  invalidation::Query q;
  q.id = "x";
  q.order_by = "price";
  q.descending = true;
  q.limit = 10;
  std::string s = q.ToString();
  EXPECT_NE(s.find("ORDER BY price DESC"), std::string::npos);
  EXPECT_NE(s.find("LIMIT 10"), std::string::npos);
}

}  // namespace
}  // namespace speedkit::origin
