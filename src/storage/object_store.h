// Versioned key-value object store backing the origin.
//
// Every successful write bumps the record's version and notifies registered
// write listeners with the before- and after-images — the hook the origin
// server drives query matching, CDN purges and Cache Sketch inserts from.
// Single-threaded by design: the discrete-event simulation serializes all
// accesses on the logical clock.
#ifndef SPEEDKIT_STORAGE_OBJECT_STORE_H_
#define SPEEDKIT_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "storage/record.h"

namespace speedkit::storage {

// before == nullptr on insert; after.deleted == true on delete.
using WriteListener =
    std::function<void(const Record* before, const Record& after)>;

struct StoreStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t misses = 0;
};

class ObjectStore {
 public:
  ObjectStore() = default;
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // Upserts: replaces the field set, bumps the version, fires listeners.
  // Returns the new version.
  uint64_t Put(std::string_view id, std::map<std::string, FieldValue> fields,
               SimTime now);

  // Partial update: merges `fields` into the existing record (insert if
  // absent or deleted, as Put), bumps the version, fires listeners.
  uint64_t Update(std::string_view id,
                  const std::map<std::string, FieldValue>& fields, SimTime now);

  Result<Record> Get(std::string_view id);
  const Record* Peek(std::string_view id) const;

  // Head version for staleness accounting; 0 when unknown.
  uint64_t VersionOf(std::string_view id) const;

  Status Delete(std::string_view id, SimTime now);

  void AddWriteListener(WriteListener listener) {
    listeners_.push_back(std::move(listener));
  }

  // Full scan in unspecified order (query matching over small catalogs).
  void Scan(const std::function<void(const Record&)>& fn) const;

  size_t size() const { return records_.size(); }
  const StoreStats& stats() const { return stats_; }

 private:
  void Notify(const Record* before, const Record& after);

  std::unordered_map<std::string, Record> records_;
  std::vector<WriteListener> listeners_;
  StoreStats stats_;
};

}  // namespace speedkit::storage

#endif  // SPEEDKIT_STORAGE_OBJECT_STORE_H_
