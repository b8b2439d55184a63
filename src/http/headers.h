// Case-insensitive HTTP header map (RFC 7230 field names are
// case-insensitive). Preserves insertion order for deterministic output;
// lookups are linear, which is faster than hashing for the <20 headers a
// real message carries.
//
// Copy-on-write: copies share one reference-counted block of entries,
// the way http::Body shares a payload, so one response version's
// head can sit in the origin's render cache, an edge, every browser cache
// and every spilled cache's handle list as a single allocation. Set, Add
// and Remove clone the block first only while another map shares it. The
// count is atomic, so maps sharing a block may live on different threads;
// one map is still not safe to mutate from two threads at once.
#ifndef SPEEDKIT_HTTP_HEADERS_H_
#define SPEEDKIT_HTTP_HEADERS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace speedkit::http {

class HeaderMap {
 public:
  HeaderMap() = default;
  HeaderMap(const HeaderMap& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  HeaderMap(HeaderMap&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  HeaderMap& operator=(const HeaderMap& other) noexcept {
    HeaderMap(other).swap(*this);
    return *this;
  }
  HeaderMap& operator=(HeaderMap&& other) noexcept {
    HeaderMap(std::move(other)).swap(*this);
    return *this;
  }
  ~HeaderMap() { Release(); }

  // Replaces any existing value(s) for `name`.
  void Set(std::string_view name, std::string_view value);

  // Appends without replacing (e.g. multiple Set-Cookie).
  void Add(std::string_view name, std::string_view value);

  // First value for `name`, if present.
  std::optional<std::string_view> Get(std::string_view name) const;

  // All values for `name`, in insertion order.
  std::vector<std::string_view> GetAll(std::string_view name) const;

  bool Has(std::string_view name) const { return Get(name).has_value(); }
  // Removing an absent name leaves a shared block shared.
  void Remove(std::string_view name);

  size_t size() const { return entries().size(); }
  bool empty() const { return entries().empty(); }

  // Iteration over (name, value) pairs in insertion order.
  auto begin() const { return entries().begin(); }
  auto end() const { return entries().end(); }

  // Approximate wire size in bytes ("name: value\r\n" per entry).
  size_t WireSize() const;

  // Whether both maps are the same block, not merely equal entries.
  bool SharesStorageWith(const HeaderMap& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  // Same entries in the same order, names and values compared exactly.
  friend bool operator==(const HeaderMap& a, const HeaderMap& b) {
    return a.block_ == b.block_ || a.entries() == b.entries();
  }

 private:
  using Entry = std::pair<std::string, std::string>;
  struct Block {
    std::atomic<uint32_t> refs{1};
    std::vector<Entry> entries;
  };

  const std::vector<Entry>& entries() const {
    return block_ != nullptr ? block_->entries : kNoEntries;
  }
  // The entries, made private to this map first if another shares them.
  std::vector<Entry>& MutableEntries();
  void Release() noexcept;
  void swap(HeaderMap& other) noexcept { std::swap(block_, other.block_); }

  static inline const std::vector<Entry> kNoEntries{};
  Block* block_ = nullptr;  // null: no entries
};

}  // namespace speedkit::http

#endif  // SPEEDKIT_HTTP_HEADERS_H_
