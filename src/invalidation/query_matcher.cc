#include "invalidation/query_matcher.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>

namespace speedkit::invalidation {

// Numbers are keyed by the double CompareFields compares: integral ones
// (below 2^63 in magnitude) as integer text, the rest as "%.6g". Equal
// numbers thus share a key whatever their type or sign of zero; unequal
// ones may too, which only adds a candidate the predicate then rejects.
void QueryMatcher::BuildKey(std::string_view field,
                            const storage::FieldValue& value) {
  key_.assign(field);
  key_.push_back('\0');
  if (!std::holds_alternative<int64_t>(value) &&
      !std::holds_alternative<double>(value)) {
    key_ += storage::FieldValueToString(value);
    return;
  }
  double d = std::holds_alternative<int64_t>(value)
                 ? static_cast<double>(std::get<int64_t>(value))
                 : std::get<double>(value);
  char buf[32];
  char* end =
      std::trunc(d) == d && std::fabs(d) < 0x1p63
          ? std::to_chars(buf, std::end(buf), static_cast<int64_t>(d)).ptr
          : std::to_chars(buf, std::end(buf), d, std::chars_format::general,
                          6)
                .ptr;
  key_.append(buf, end);
}

Status QueryMatcher::Subscribe(Query query) {
  auto [it, inserted] = queries_.try_emplace(query.id, std::move(query));
  if (!inserted) {
    return Status::AlreadyExists("subscription exists: " + it->first);
  }
  const Query& q = it->second;
  // Filed under its first equality condition, if it has one.
  auto eq = std::find_if(q.conditions.begin(), q.conditions.end(),
                         [](const Condition& c) { return c.op == Op::kEq; });
  if (!use_index_ || eq == q.conditions.end()) {
    scan_list_.push_back(&q);
  } else {
    BuildKey(eq->field, eq->value);
    eq_index_[key_].push_back(&q);
  }
  return Status::Ok();
}

std::vector<std::string> QueryMatcher::MatchWrite(
    const storage::Record* before, const storage::Record& after) {
  stats_.writes_matched++;
  std::vector<std::string> affected;
  auto probe = [&](const Bucket& candidates) {
    for (const Query* q : candidates) {
      stats_.candidates_probed++;
      if (q->AffectedBy(before, after)) affected.push_back(q->id);
    }
  };
  // A subscription can only be affected if its equality condition holds
  // for the before- or the after-image, so its bucket is keyed by one of
  // their (field, value) pairs. A field both images share keys the same
  // bucket twice; it is probed once.
  probed_.clear();
  for (const storage::Record* image : {before, &after}) {
    if (image == nullptr || eq_index_.empty()) continue;
    for (const auto& [field, value] : image->fields) {
      BuildKey(field, value);
      auto bucket = eq_index_.find(key_);
      if (bucket == eq_index_.end() ||
          std::find(probed_.begin(), probed_.end(), &bucket->second) !=
              probed_.end()) {
        continue;
      }
      probed_.push_back(&bucket->second);
      probe(bucket->second);
    }
  }
  probe(scan_list_);
  stats_.hits += affected.size();
  return affected;
}

}  // namespace speedkit::invalidation
