#include "invalidation/predicate.h"

#include <gtest/gtest.h>

namespace speedkit::invalidation {
namespace {

storage::Record Product(int64_t category, double price,
                        std::string title = "Widget") {
  storage::Record r;
  r.id = 'p';  // assigning "p" trips a false g++ 12 -Wrestrict at -O3
  r.version = 1;
  r.fields["category"] = category;
  r.fields["price"] = price;
  r.fields["title"] = std::move(title);
  return r;
}

TEST(ConditionTest, EqualityOnInt) {
  Condition c{"category", Op::kEq, static_cast<int64_t>(3)};
  EXPECT_TRUE(c.Matches(Product(3, 10)));
  EXPECT_FALSE(c.Matches(Product(4, 10)));
}

TEST(ConditionTest, NumericComparisons) {
  EXPECT_TRUE((Condition{"price", Op::kLt, 20.0}).Matches(Product(1, 10)));
  EXPECT_FALSE((Condition{"price", Op::kLt, 10.0}).Matches(Product(1, 10)));
  EXPECT_TRUE((Condition{"price", Op::kLe, 10.0}).Matches(Product(1, 10)));
  EXPECT_TRUE((Condition{"price", Op::kGt, 5.0}).Matches(Product(1, 10)));
  EXPECT_TRUE((Condition{"price", Op::kGe, 10.0}).Matches(Product(1, 10)));
  EXPECT_TRUE((Condition{"price", Op::kNe, 9.0}).Matches(Product(1, 10)));
}

TEST(ConditionTest, IntVsDoubleCrossType) {
  // price stored as double, compared against int literal.
  Condition c{"price", Op::kEq, static_cast<int64_t>(10)};
  EXPECT_TRUE(c.Matches(Product(1, 10.0)));
}

TEST(ConditionTest, MissingFieldNeverMatches) {
  Condition c{"ghost", Op::kEq, static_cast<int64_t>(1)};
  EXPECT_FALSE(c.Matches(Product(1, 10)));
  Condition ne{"ghost", Op::kNe, static_cast<int64_t>(1)};
  EXPECT_FALSE(ne.Matches(Product(1, 10)));
}

TEST(ConditionTest, IncomparableTypesOnlyNeHolds) {
  Condition eq{"title", Op::kEq, static_cast<int64_t>(1)};
  EXPECT_FALSE(eq.Matches(Product(1, 10)));
  Condition ne{"title", Op::kNe, static_cast<int64_t>(1)};
  EXPECT_TRUE(ne.Matches(Product(1, 10)));
}

TEST(ConditionTest, ContainsOnStrings) {
  Condition c{"title", Op::kContains, std::string("idg")};
  EXPECT_TRUE(c.Matches(Product(1, 10, "Widget")));
  EXPECT_FALSE(c.Matches(Product(1, 10, "Gadget")));
  // Contains on non-string field: no match.
  Condition n{"price", Op::kContains, std::string("1")};
  EXPECT_FALSE(n.Matches(Product(1, 10)));
}

TEST(QueryTest, ConjunctionSemantics) {
  Query q;
  q.id = "sale-shoes";
  q.conditions.push_back({"category", Op::kEq, static_cast<int64_t>(3)});
  q.conditions.push_back({"price", Op::kLt, 50.0});
  EXPECT_TRUE(q.Matches(Product(3, 20)));
  EXPECT_FALSE(q.Matches(Product(3, 80)));
  EXPECT_FALSE(q.Matches(Product(4, 20)));
}

TEST(QueryTest, EmptyQueryMatchesAllLiveRecords) {
  Query q;
  q.id = "all";
  EXPECT_TRUE(q.Matches(Product(1, 1)));
  storage::Record dead = Product(1, 1);
  dead.deleted = true;
  EXPECT_FALSE(q.Matches(dead));
}

TEST(QueryTest, AffectedByEnterLeaveAndInPlace) {
  Query q;
  q.id = "cat3";
  q.conditions.push_back({"category", Op::kEq, static_cast<int64_t>(3)});

  storage::Record in3 = Product(3, 10);
  storage::Record in4 = Product(4, 10);
  storage::Record in3b = Product(3, 12);

  EXPECT_TRUE(q.AffectedBy(&in4, in3));    // enters result
  EXPECT_TRUE(q.AffectedBy(&in3, in4));    // leaves result
  EXPECT_TRUE(q.AffectedBy(&in3, in3b));   // member changed in place
  EXPECT_FALSE(q.AffectedBy(&in4, in4));   // unrelated write
  EXPECT_TRUE(q.AffectedBy(nullptr, in3)); // insert into result
  EXPECT_FALSE(q.AffectedBy(nullptr, in4));// unrelated insert
}

TEST(QueryTest, AffectedByDelete) {
  Query q;
  q.id = "cat3";
  q.conditions.push_back({"category", Op::kEq, static_cast<int64_t>(3)});
  storage::Record before = Product(3, 10);
  storage::Record tombstone = before;
  tombstone.deleted = true;
  EXPECT_TRUE(q.AffectedBy(&before, tombstone));
}

TEST(QueryTest, ToStringIsReadable) {
  Query q;
  q.id = "x";
  q.conditions.push_back({"price", Op::kLt, 50.0});
  EXPECT_NE(q.ToString().find("price < 50"), std::string::npos);
  Query all;
  all.id = "all";
  EXPECT_NE(all.ToString().find("*"), std::string::npos);
}

}  // namespace
}  // namespace speedkit::invalidation
