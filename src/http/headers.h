// Case-insensitive HTTP header map (RFC 7230 field names are
// case-insensitive). Preserves insertion order for deterministic output;
// lookups are linear, which is faster than hashing for the <20 headers a
// real message carries.
//
// One block per head: a map is one pointer to one intrusively counted heap
// block, laid out like http::Body's. A 28-byte header holds the count, the
// entry count, the entry bytes and the Cache-Control memo. The entries
// follow it, packed in insertion order: the name's and the value's 32-bit
// lengths, then the name's and the value's bytes. The block is sized
// exactly, so one response version's head, which sits in the origin's
// render cache, an edge, every browser cache and every spilled cache's
// handle list, is one allocation of its own size. An empty map holds no
// block.
//
// Copy-on-write: copies share the block. Set, Add and Remove build one new
// block (none when no entry remains) and never write the old one; removing
// an absent name builds nothing. The count is atomic, so maps sharing a
// block may live on different threads; one map is still not safe to mutate
// from two threads at once.
//
// Parsed once: a block memoizes CacheControl::Parse of its first
// Cache-Control value when it is built, never lazily, because blocks are
// shared across threads. The memo is flag bits and three 32-bit second
// counts; a parse it cannot hold (a count past 2^32 - 1 seconds) leaves it
// unset, and GetCacheControl() parses the text instead. A mutation that
// leaves the first Cache-Control value alone keeps the memo.
//
// A parser builds a head with one allocation however many fields it
// carries: it sizes the head in a first pass over its input and fills a
// Builder in a second.
#ifndef SPEEDKIT_HTTP_HEADERS_H_
#define SPEEDKIT_HTTP_HEADERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "http/cache_control.h"

namespace speedkit::http {

class HeaderMap {
 public:
  using Field = std::pair<std::string_view, std::string_view>;
  class Builder;

  // Walks the packed entries; dereferencing decodes one (name, value).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Field;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Field;

    const_iterator() = default;
    Field operator*() const {
      uint32_t lengths[2];
      std::memcpy(lengths, at_, sizeof(lengths));
      const char* name = at_ + sizeof(lengths);
      return {std::string_view(name, lengths[0]),
              std::string_view(name + lengths[0], lengths[1])};
    }
    const_iterator& operator++() {
      uint32_t lengths[2];
      std::memcpy(lengths, at_, sizeof(lengths));
      at_ += sizeof(lengths) + lengths[0] + lengths[1];
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.at_ == b.at_;
    }

   private:
    friend class HeaderMap;
    explicit const_iterator(const char* at) : at_(at) {}
    const char* at_ = nullptr;
  };

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

  // CacheControl::Parse of the first Cache-Control value, or the default
  // CacheControl without one; read from the memo when it is set.
  CacheControl GetCacheControl() const;

  size_t size() const { return block_ == nullptr ? 0 : block_->count; }
  bool empty() const { return block_ == nullptr; }

  // Iteration over (name, value) pairs in insertion order.
  const_iterator begin() const { return const_iterator(Entries()); }
  const_iterator end() const {
    return const_iterator(block_ == nullptr ? nullptr
                                            : Entries() + block_->bytes);
  }

  // Approximate wire size in bytes ("name: value\r\n" per entry). An
  // entry's 8 length bytes stand in for its ": " and CRLF, so this is the
  // entry bytes less 4 per entry.
  size_t WireSize() const {
    return block_ == nullptr ? 0 : block_->bytes - 4 * size_t{block_->count};
  }

  // Whether both maps are the same block, not merely equal entries.
  bool SharesStorageWith(const HeaderMap& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

  // Same entries in the same order, names and values compared exactly.
  friend bool operator==(const HeaderMap& a, const HeaderMap& b);

 private:
  // CacheControl::Parse as flag bits (kMemoSet clear: it did not fit) and
  // whole seconds.
  struct Memo {
    uint32_t flags = 0;
    uint32_t max_age = 0;
    uint32_t s_maxage = 0;
    uint32_t stale_while_revalidate = 0;
  };
  // Followed by `bytes` bytes of packed entries.
  struct Block {
    std::atomic<uint32_t> refs{1};
    uint32_t count = 0;
    uint32_t bytes = 0;
    Memo memo;
  };

  // The memo of CacheControl::Parse(*value), or of no value at all.
  static Memo MemoOf(std::optional<std::string_view> value);

  const char* Entries() const {
    return block_ == nullptr ? nullptr
                             : reinterpret_cast<const char*>(block_ + 1);
  }
  // Replaces the block with one that lacks every entry named `drop` and
  // ends with `append`.
  void Rebuild(std::optional<std::string_view> drop,
               std::optional<Field> append);
  void Release() noexcept;
  void swap(HeaderMap& other) noexcept { std::swap(block_, other.block_); }

  Block* block_ = nullptr;  // null: no entries
};

// Builds one block from fields counted in advance. Each announced field is
// appended once, in order, before Finish. Appending more or finishing with
// fewer throws std::logic_error; a head past 2^32 - 1 bytes throws
// std::length_error.
class HeaderMap::Builder {
 public:
  // Room for `count` fields whose names and values total `text_bytes`.
  Builder(size_t count, size_t text_bytes);
  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;
  ~Builder();

  void Append(std::string_view name, std::string_view value);
  // The map, its memo parsed from the first Cache-Control value appended.
  HeaderMap Finish();

 private:
  friend class HeaderMap;

  Block* block_ = nullptr;  // null once finished, or for no fields
  char* next_ = nullptr;
  char* end_ = nullptr;
  size_t pending_ = 0;  // announced fields not yet appended
  std::optional<std::string_view> cache_control_;  // first value appended
  // A mutation that keeps the first Cache-Control value keeps its memo.
  const Memo* kept_memo_ = nullptr;
};

}  // namespace speedkit::http

#endif  // SPEEDKIT_HTTP_HEADERS_H_
