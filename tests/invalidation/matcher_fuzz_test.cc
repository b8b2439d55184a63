// Randomized differential test: the indexed QueryMatcher against a
// brute-force evaluation of every subscription, across random predicates
// and write streams. Any pruning bug in the equality index shows up as a
// mismatch here.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "common/strings.h"
#include "invalidation/query_matcher.h"

namespace speedkit::invalidation {
namespace {

storage::FieldValue RandomValue(Pcg32& rng) {
  switch (rng.NextBounded(6)) {
    case 0:
      return static_cast<int64_t>(rng.NextBounded(8));
    case 1:
      return rng.Uniform(0, 100.0);
    case 2:
      return StrFormat("s%u", rng.NextBounded(5));
    case 3:
      return rng.WithProbability(0.5);
    case 4: {
      // Numerically equal across types, and too long for "%.6g" to print
      // exactly.
      int64_t n = 1000000 + rng.NextBounded(3);
      if (rng.OneIn(2)) return n;
      return static_cast<double>(n);
    }
    default:
      // Equal to each other and to the int 0 of case 0.
      return rng.OneIn(2) ? 0.0 : -0.0;
  }
}

storage::Record RandomRecord(Pcg32& rng, uint64_t version) {
  static const char* kFields[] = {"category", "price", "brand", "flag"};
  storage::Record r;
  r.id = StrFormat("p%u", rng.NextBounded(10));
  r.version = version;
  for (const char* field : kFields) {
    if (rng.WithProbability(0.8)) {
      r.fields[field] = RandomValue(rng);
    }
  }
  return r;
}

Query RandomQuery(Pcg32& rng, int id) {
  static const char* kFields[] = {"category", "price", "brand", "flag"};
  static const Op kOps[] = {Op::kEq,  Op::kNe, Op::kLt, Op::kLe,
                            Op::kGt, Op::kGe, Op::kContains};
  Query q;
  q.id = StrFormat("q%d", id);
  uint32_t conditions = 1 + rng.NextBounded(3);
  for (uint32_t i = 0; i < conditions; ++i) {
    Condition c;
    c.field = kFields[rng.NextBounded(4)];
    c.op = kOps[rng.NextBounded(7)];
    c.value = RandomValue(rng);
    q.conditions.push_back(std::move(c));
  }
  return q;
}

class MatcherFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherFuzz, IndexedMatchEqualsBruteForce) {
  uint64_t seed = GetParam();
  Pcg32 rng(seed);

  std::vector<Query> queries;
  QueryMatcher matcher(/*use_index=*/true);
  for (int i = 0; i < 200; ++i) {
    queries.push_back(RandomQuery(rng, i));
    ASSERT_TRUE(matcher.Subscribe(queries.back()).ok());
  }

  for (int write = 0; write < 500; ++write) {
    bool has_before = rng.WithProbability(0.7);
    storage::Record before = RandomRecord(rng, 1);
    storage::Record after = RandomRecord(rng, 2);
    after.id = before.id;  // same record, new image
    if (rng.WithProbability(0.1)) after.deleted = true;

    std::vector<std::string> got =
        matcher.MatchWrite(has_before ? &before : nullptr, after);
    std::sort(got.begin(), got.end());

    std::vector<std::string> expected;
    for (const Query& q : queries) {
      if (q.AffectedBy(has_before ? &before : nullptr, after)) {
        expected.push_back(q.id);
      }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << "write " << write << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherFuzz,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace speedkit::invalidation
