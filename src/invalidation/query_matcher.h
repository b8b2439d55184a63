// Real-time query matcher — the in-process stand-in for InvaliDB.
//
// Decides which subscriptions (cached query results that must be
// invalidated when their result set changes) a write affects. A stack has
// one, owned by the origin server: each write is matched once, and the
// matched ids drive both the origin's result versions and the invalidation
// pipeline's purges and sketch reports. Subscriptions whose predicate
// contains an equality condition on a field are indexed under (field,
// value): a write only probes the buckets for its before/after field
// values, each bucket at most once, plus the residual scan list. For
// e-commerce predicates (category == X) this removes ~all non-candidates —
// the effect E6 measures, and disabling it is the full-scan ablation.
//
// Numbers are indexed by the double CompareFields compares, so values the
// predicate calls equal (5 and 5.0, 0 and -0.0) share a bucket and the
// index returns exactly what the full scan returns.
#ifndef SPEEDKIT_INVALIDATION_QUERY_MATCHER_H_
#define SPEEDKIT_INVALIDATION_QUERY_MATCHER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "invalidation/predicate.h"

namespace speedkit::invalidation {

struct MatcherStats {
  uint64_t writes_matched = 0;
  uint64_t candidates_probed = 0;  // predicate evaluations performed
  uint64_t hits = 0;               // affected subscriptions found
};

class QueryMatcher {
 public:
  explicit QueryMatcher(bool use_index = true) : use_index_(use_index) {}

  // Registers a cached query result to watch. Fails on duplicate id.
  Status Subscribe(Query query);
  size_t subscription_count() const { return queries_.size(); }

  // Returns the ids of all subscriptions affected by the write, i.e. those
  // whose Query::AffectedBy(before, after) holds.
  std::vector<std::string> MatchWrite(const storage::Record* before,
                                      const storage::Record& after);

  const MatcherStats& stats() const { return stats_; }

 private:
  using Bucket = std::vector<const Query*>;

  // Sets key_ to the index key of (field, value).
  void BuildKey(std::string_view field, const storage::FieldValue& value);

  bool use_index_;
  // id -> query; nodes are stable, so buckets point into it.
  std::unordered_map<std::string, Query> queries_;
  // (field\0value) -> subscriptions whose first equality condition it is.
  std::unordered_map<std::string, Bucket> eq_index_;
  Bucket scan_list_;  // subscriptions without usable equality
  // Per-write scratch, reused so matching allocates no keys.
  std::string key_;
  std::vector<const Bucket*> probed_;
  MatcherStats stats_;
};

}  // namespace speedkit::invalidation

#endif  // SPEEDKIT_INVALIDATION_QUERY_MATCHER_H_
