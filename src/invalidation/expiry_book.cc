#include "invalidation/expiry_book.h"

namespace speedkit::invalidation {

void ExpiryBook::RecordServed(std::string_view key, SimTime fresh_until) {
  auto [deadline, inserted] = deadlines_.Upsert(key, fresh_until);
  if (!inserted && fresh_until > *deadline) *deadline = fresh_until;
}

SimTime ExpiryBook::LatestExpiry(std::string_view key, SimTime now) const {
  const SimTime* deadline = deadlines_.Find(key);
  if (deadline == nullptr || *deadline <= now) return now;
  return *deadline;
}

}  // namespace speedkit::invalidation
