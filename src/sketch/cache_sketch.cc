#include "sketch/cache_sketch.h"

#include <algorithm>

namespace speedkit::sketch {

void CacheSketch::ReportInvalidation(std::string_view key, SimTime stale_until,
                                     SimTime now) {
  stats_.reports++;
  if (stale_until <= now) return;
  auto [it, inserted] = horizon_.emplace(std::string(key), stale_until);
  if (inserted) {
    published_dirty_ = true;
    stats_.inserts++;
    stats_.current_entries = horizon_.size();
    expiry_.push(HeapItem{stale_until, it->first});
  } else if (stale_until > it->second) {
    it->second = stale_until;
    stats_.extensions++;
    // Lazy: the heap keeps the old deadline; expiry re-checks the map and
    // re-pushes if the horizon moved.
    expiry_.push(HeapItem{stale_until, it->first});
  }
}

void CacheSketch::ExpireUntil(SimTime now) {
  while (!expiry_.empty() && expiry_.top().at <= now) {
    HeapItem item = expiry_.top();
    expiry_.pop();
    auto it = horizon_.find(item.key);
    if (it == horizon_.end()) continue;  // already expired via another entry
    if (it->second > now) continue;      // horizon was extended; later entry covers it
    horizon_.erase(it);
    published_dirty_ = true;
    stats_.expirations++;
  }
  stats_.current_entries = horizon_.size();
}

bool CacheSketch::Contains(std::string_view key) const {
  return horizon_.find(std::string(key)) != horizon_.end();
}

const CacheSketch::Publication& CacheSketch::Publish(SimTime now) {
  ExpireUntil(now);
  stats_.snapshots++;
  if (published_dirty_) {
    BloomFilter filter = BloomFilter::ForCapacity(
        std::max<size_t>(1, horizon_.size()), kSnapshotFpr);
    for (const auto& [key, until] : horizon_) {
      filter.Add(key);
    }
    // A compact snapshot is always far under the 48-bit header limit, so
    // Serialize cannot fail here.
    published_.bytes =
        std::make_shared<const std::string>(filter.Serialize().value());
    // The filter handed to clients is the one the bytes describe: a client
    // holding the shared object behaves bit-for-bit like one that
    // deserialized the string itself.
    published_.filter = std::make_shared<const BloomFilter>(std::move(filter));
    published_dirty_ = false;
    stats_.serializations++;
  }
  return published_;
}

}  // namespace speedkit::sketch
