#include "storage/object_store.h"

namespace speedkit::storage {

uint64_t ObjectStore::Put(std::string_view id,
                          std::map<std::string, FieldValue> fields,
                          SimTime now) {
  stats_.puts++;
  auto it = records_.find(std::string(id));
  if (it == records_.end()) {
    Record record;
    record.id = std::string(id);
    record.fields = std::move(fields);
    record.version = 1;
    record.updated_at = now;
    auto [inserted, _] = records_.emplace(record.id, std::move(record));
    Notify(nullptr, inserted->second);
    return 1;
  }
  Record before = it->second;
  it->second.fields = std::move(fields);
  it->second.version++;
  it->second.updated_at = now;
  it->second.deleted = false;
  Notify(&before, it->second);
  return it->second.version;
}

uint64_t ObjectStore::Update(std::string_view id,
                             const std::map<std::string, FieldValue>& fields,
                             SimTime now) {
  auto it = records_.find(std::string(id));
  if (it == records_.end() || it->second.deleted) {
    // Nothing live to merge into: insert, reviving a tombstone.
    return Put(id, fields, now);
  }
  stats_.puts++;
  Record before = it->second;
  for (const auto& [name, value] : fields) {
    it->second.fields[name] = value;
  }
  it->second.version++;
  it->second.updated_at = now;
  Notify(&before, it->second);
  return it->second.version;
}

Result<Record> ObjectStore::Get(std::string_view id) {
  stats_.gets++;
  auto it = records_.find(std::string(id));
  if (it == records_.end() || it->second.deleted) {
    stats_.misses++;
    return Status::NotFound("no record: " + std::string(id));
  }
  return it->second;
}

const Record* ObjectStore::Peek(std::string_view id) const {
  auto it = records_.find(std::string(id));
  if (it == records_.end() || it->second.deleted) return nullptr;
  return &it->second;
}

uint64_t ObjectStore::VersionOf(std::string_view id) const {
  auto it = records_.find(std::string(id));
  return it == records_.end() ? 0 : it->second.version;
}

Status ObjectStore::Delete(std::string_view id, SimTime now) {
  auto it = records_.find(std::string(id));
  if (it == records_.end() || it->second.deleted) {
    return Status::NotFound("no record: " + std::string(id));
  }
  stats_.deletes++;
  Record before = it->second;
  it->second.deleted = true;
  it->second.version++;
  it->second.updated_at = now;
  Notify(&before, it->second);
  return Status::Ok();
}

void ObjectStore::Scan(const std::function<void(const Record&)>& fn) const {
  for (const auto& [id, record] : records_) {
    if (!record.deleted) fn(record);
  }
}

void ObjectStore::Notify(const Record* before, const Record& after) {
  for (const auto& listener : listeners_) listener(before, after);
}

}  // namespace speedkit::storage
