#include "http/headers.h"

#include <algorithm>

#include "common/strings.h"

namespace speedkit::http {

void HeaderMap::Set(std::string_view name, std::string_view value) {
  Remove(name);
  Add(name, value);
}

void HeaderMap::Add(std::string_view name, std::string_view value) {
  MutableEntries().emplace_back(std::string(name), std::string(value));
}

std::optional<std::string_view> HeaderMap::Get(std::string_view name) const {
  for (const auto& [k, v] : entries()) {
    if (EqualsIgnoreCase(k, name)) return std::string_view(v);
  }
  return std::nullopt;
}

std::vector<std::string_view> HeaderMap::GetAll(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& [k, v] : entries()) {
    if (EqualsIgnoreCase(k, name)) out.emplace_back(v);
  }
  return out;
}

void HeaderMap::Remove(std::string_view name) {
  if (!Has(name)) return;
  std::vector<Entry>& entries = MutableEntries();
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [name](const Entry& e) {
                                 return EqualsIgnoreCase(e.first, name);
                               }),
                entries.end());
}

size_t HeaderMap::WireSize() const {
  size_t bytes = 0;
  for (const auto& [k, v] : entries()) bytes += k.size() + v.size() + 4;
  return bytes;
}

std::vector<HeaderMap::Entry>& HeaderMap::MutableEntries() {
  if (block_ == nullptr) {
    block_ = new Block;
    // A response head is usually Cache-Control plus ETag; room for two
    // saves building it one regrowth.
    block_->entries.reserve(2);
  } else if (block_->refs.load(std::memory_order_acquire) != 1) {
    // The acquire pairs with the release in other holders' Release(), so
    // their reads of the block happen before this map writes to its own.
    Block* copy = new Block;
    copy->entries = block_->entries;
    Release();
    block_ = copy;
  }
  return block_->entries;
}

void HeaderMap::Release() noexcept {
  if (block_ != nullptr &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete block_;
  }
  block_ = nullptr;
}

}  // namespace speedkit::http
