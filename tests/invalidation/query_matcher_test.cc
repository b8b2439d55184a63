#include "invalidation/query_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace speedkit::invalidation {
namespace {

storage::Record Product(std::string id, int64_t category, double price) {
  storage::Record r;
  r.id = std::move(id);
  r.version = 1;
  r.fields["category"] = category;
  r.fields["price"] = price;
  return r;
}

Query CategoryQuery(std::string id, int64_t category) {
  Query q;
  q.id = std::move(id);
  q.conditions.push_back({"category", Op::kEq, category});
  return q;
}

Query PriceQuery(std::string id, double below) {
  Query q;
  q.id = std::move(id);
  q.conditions.push_back({"price", Op::kLt, below});
  return q;
}

// Parameterized on use_index: the equality index and the full scan.
class QueryMatcherParam : public ::testing::TestWithParam<bool> {
 protected:
  QueryMatcher MakeMatcher() { return QueryMatcher(GetParam()); }
};

TEST_P(QueryMatcherParam, MatchesAffectedSubscriptionsExactly) {
  QueryMatcher matcher = MakeMatcher();
  ASSERT_TRUE(matcher.Subscribe(CategoryQuery("cat1", 1)).ok());
  ASSERT_TRUE(matcher.Subscribe(CategoryQuery("cat2", 2)).ok());
  ASSERT_TRUE(matcher.Subscribe(PriceQuery("cheap", 50.0)).ok());

  // Insert into category 1, price 20: affects cat1 and cheap, not cat2.
  storage::Record after = Product("p1", 1, 20);
  auto hits = matcher.MatchWrite(nullptr, after);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<std::string>{"cat1", "cheap"}));

  // Move it to category 2 (leaves cat1, enters cat2, stays cheap).
  storage::Record moved = Product("p1", 2, 20);
  hits = matcher.MatchWrite(&after, moved);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<std::string>{"cat1", "cat2", "cheap"}));

  // Price-only change within category 2, still cheap: cat2 (member
  // changed) and cheap fire; cat1 must not.
  storage::Record repriced = Product("p1", 2, 30);
  hits = matcher.MatchWrite(&moved, repriced);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<std::string>{"cat2", "cheap"}));
}

TEST_P(QueryMatcherParam, UnrelatedWriteMatchesNothing) {
  QueryMatcher matcher = MakeMatcher();
  ASSERT_TRUE(matcher.Subscribe(CategoryQuery("cat1", 1)).ok());
  storage::Record r = Product("p9", 7, 500);
  EXPECT_TRUE(matcher.MatchWrite(nullptr, r).empty());
}

INSTANTIATE_TEST_SUITE_P(Configs, QueryMatcherParam, ::testing::Bool());

TEST(QueryMatcherTest, DuplicateSubscribeFails) {
  QueryMatcher matcher;
  ASSERT_TRUE(matcher.Subscribe(CategoryQuery("q", 1)).ok());
  EXPECT_EQ(matcher.Subscribe(CategoryQuery("q", 2)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(matcher.subscription_count(), 1u);
}

TEST(QueryMatcherTest, IndexPrunesCandidateProbes) {
  // 1000 equality subscriptions on distinct categories: the index should
  // probe ~1 candidate per write instead of all 1000.
  QueryMatcher indexed(/*use_index=*/true);
  QueryMatcher scanning(/*use_index=*/false);
  for (int i = 0; i < 1000; ++i) {
    std::string id = "cat" + std::to_string(i);
    ASSERT_TRUE(indexed.Subscribe(CategoryQuery(id, i)).ok());
    ASSERT_TRUE(scanning.Subscribe(CategoryQuery(id, i)).ok());
  }
  storage::Record r = Product("p1", 500, 20);
  auto hits_indexed = indexed.MatchWrite(nullptr, r);
  auto hits_scanning = scanning.MatchWrite(nullptr, r);
  EXPECT_EQ(hits_indexed, hits_scanning);
  EXPECT_EQ(hits_indexed, std::vector<std::string>{"cat500"});
  EXPECT_LT(indexed.stats().candidates_probed, 20u);
  EXPECT_EQ(scanning.stats().candidates_probed, 1000u);
}

TEST(QueryMatcherTest, IndexAndScanAgreeOnMixedPredicates) {
  QueryMatcher indexed(/*use_index=*/true);
  QueryMatcher scanning(/*use_index=*/false);
  for (int i = 0; i < 50; ++i) {
    Query eq = CategoryQuery("eq" + std::to_string(i), i % 10);
    Query lt = PriceQuery("lt" + std::to_string(i), 10.0 * i);
    ASSERT_TRUE(indexed.Subscribe(eq).ok());
    ASSERT_TRUE(indexed.Subscribe(lt).ok());
    ASSERT_TRUE(scanning.Subscribe(eq).ok());
    ASSERT_TRUE(scanning.Subscribe(lt).ok());
  }
  storage::Record before = Product("p1", 3, 120);
  storage::Record after = Product("p1", 7, 80);
  auto a = indexed.MatchWrite(&before, after);
  auto b = scanning.MatchWrite(&before, after);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// Values the predicate calls equal must share an index bucket: an int
// condition against an integral double (large enough that "%.6g" would
// round it), the reverse, and 0 against -0.0.
TEST(QueryMatcherTest, IndexAgreesWithScanOnNumericEquality) {
  struct Case {
    storage::FieldValue condition;
    storage::FieldValue record;
  };
  const Case cases[] = {
      {static_cast<int64_t>(1234567), 1234567.0},
      {1234567.0, static_cast<int64_t>(1234567)},
      {static_cast<int64_t>(0), -0.0},
      {-0.0, static_cast<int64_t>(0)},
      {0.0, -0.0},
  };
  for (const Case& c : cases) {
    QueryMatcher indexed(/*use_index=*/true);
    QueryMatcher scanning(/*use_index=*/false);
    Query q;
    q.id = "sku";
    q.conditions.push_back({"sku", Op::kEq, c.condition});
    ASSERT_TRUE(indexed.Subscribe(q).ok());
    ASSERT_TRUE(scanning.Subscribe(q).ok());
    storage::Record r;
    r.id = "p1";
    r.fields["sku"] = c.record;
    ASSERT_TRUE(q.Matches(r));
    EXPECT_EQ(indexed.MatchWrite(nullptr, r), std::vector<std::string>{"sku"})
        << q.ToString();
    EXPECT_EQ(scanning.MatchWrite(nullptr, r), std::vector<std::string>{"sku"});
  }
}

TEST(QueryMatcherTest, StatsCountHits) {
  QueryMatcher matcher;
  ASSERT_TRUE(matcher.Subscribe(CategoryQuery("c", 1)).ok());
  storage::Record r = Product("p1", 1, 5);
  matcher.MatchWrite(nullptr, r);
  matcher.MatchWrite(nullptr, r);
  EXPECT_EQ(matcher.stats().writes_matched, 2u);
  EXPECT_EQ(matcher.stats().hits, 2u);
}

}  // namespace
}  // namespace speedkit::invalidation
