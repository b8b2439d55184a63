// Byte-budgeted LRU map, string-keyed.
//
// The eviction unit is whole entries; the budget is the sum of a
// caller-supplied size function over resident values (so an HTTP cache can
// charge body bytes while a fragment cache charges rendered-fragment
// bytes). Each entry is one heap block: its recency links, its hash-chain
// link, the hash, the value, and then the key bytes. The index is a
// power-of-two array of chain heads. Touch, insert, evict and erase are
// O(1); a lookup hashes its key once, compares it in place and allocates
// nothing. Blocks never move, so a pointer to a resident value stays valid
// until that entry is replaced or removed, even across a move of the cache.
#ifndef SPEEDKIT_CACHE_LRU_CACHE_H_
#define SPEEDKIT_CACHE_LRU_CACHE_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/hash.h"

namespace speedkit::cache {

// Result of LruCache::Put. An oversized value (larger than the whole
// budget) is never admitted — and because storing is also an invalidation
// signal (the caller has a newer version than whatever is resident), the
// old resident entry is evicted rather than left to serve stale data.
enum class PutOutcome {
  kAdmitted,
  kRejectedOversized,  // value dropped; any resident entry evicted
};

template <typename Value>
class LruCache {
 public:
  // A plain function pointer, not a std::function: every caller passes a
  // captureless lambda, and a cache per client makes the 24 bytes count.
  using SizeFn = size_t (*)(const Value&);

  // `capacity_bytes` of 0 means unbounded (useful in protocol unit tests).
  explicit LruCache(size_t capacity_bytes,
                    SizeFn size_fn = [](const Value&) { return size_t{1}; })
      : capacity_bytes_(capacity_bytes), size_fn_(size_fn) {}

  ~LruCache() { DeleteNodes(); }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;
  // Moving hands the entry blocks and the bucket array over; the source is
  // left empty and reusable. Owners swap in a fresh cache this way.
  LruCache(LruCache&& other) noexcept
      : LruCache(other.capacity_bytes_, other.size_fn_) {
    *this = std::move(other);
  }
  LruCache& operator=(LruCache&& other) noexcept {
    if (this == &other) return *this;
    DeleteNodes();
    capacity_bytes_ = other.capacity_bytes_;
    size_fn_ = other.size_fn_;
    mru_ = std::exchange(other.mru_, nullptr);
    lru_ = std::exchange(other.lru_, nullptr);
    buckets_ = std::move(other.buckets_);
    bucket_count_ = std::exchange(other.bucket_count_, 0);
    size_ = std::exchange(other.size_, 0);
    used_bytes_ = std::exchange(other.used_bytes_, 0);
    evictions_ = std::exchange(other.evictions_, 0);
    oversized_rejections_ = std::exchange(other.oversized_rejections_, 0);
    return *this;
  }

  // Returns the resident value and marks it most-recently-used.
  Value* Get(std::string_view key) {
    Node* node = Find(key);
    if (node == nullptr) return nullptr;
    MoveToFront(node);
    return &node->value;
  }

  // Lookup without touching recency (metrics probes).
  const Value* Peek(std::string_view key) const {
    const Node* node = Find(key);
    return node == nullptr ? nullptr : &node->value;
  }

  // Inserts or replaces; evicts LRU entries until within budget. An entry
  // larger than the whole budget is not admitted (see PutOutcome) — the
  // caller decides whether a rejection needs surfacing (an HTTP cache
  // counts it as a store reject so hit-rate accounting stays truthful).
  // Throws std::length_error for a key longer than UINT32_MAX bytes.
  PutOutcome Put(std::string_view key, Value value) {
    if (key.size() > std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("LruCache: key longer than UINT32_MAX bytes");
    }
    size_t value_bytes = size_fn_(value);
    if (capacity_bytes_ != 0 && value_bytes > capacity_bytes_) {
      if (Erase(key)) ++evictions_;  // capacity pushed out the resident
      ++oversized_rejections_;
      return PutOutcome::kRejectedOversized;
    }
    const uint32_t hash = HashOf(key);
    if (Node* node = Find(key, hash); node != nullptr) {
      const size_t old_bytes = size_fn_(node->value);
      node->value = std::move(value);
      used_bytes_ = used_bytes_ - old_bytes + value_bytes;
      MoveToFront(node);
    } else {
      if (size_ >= bucket_count_) Grow();
      node = NewNode(key, hash, std::move(value));
      Node*& head = buckets_[hash & (bucket_count_ - 1)];
      node->chain = head;
      head = node;
      LinkFront(node);
      ++size_;
      used_bytes_ += value_bytes;
    }
    EvictToBudget();
    return PutOutcome::kAdmitted;
  }

  bool Erase(std::string_view key) {
    Node* node = Find(key);
    if (node == nullptr) return false;
    Remove(node);
    return true;
  }

  // Drops every entry and the bucket array.
  void Clear() {
    DeleteNodes();
    mru_ = lru_ = nullptr;
    buckets_.reset();
    bucket_count_ = 0;
    size_ = 0;
    used_bytes_ = 0;
  }

  // Visits entries from least- to most-recently-used. Re-inserting in
  // visit order via Put reconstructs the exact recency chain — the
  // browser-cache freeze/thaw codec depends on this.
  template <typename Fn>  // Fn(std::string_view key, const Value&)
  void ForEachLruToMru(Fn fn) const {
    for (const Node* node = lru_; node != nullptr; node = node->prev) {
      fn(node->key(), node->value);
    }
  }

  size_t size() const { return size_; }
  size_t used_bytes() const { return used_bytes_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t oversized_rejections() const { return oversized_rejections_; }

  // Thaw-codec hook: a rehydrated cache must report the eviction history
  // of the cache it was frozen from, not a fresh zero.
  void RestoreCounters(uint64_t evictions, uint64_t oversized_rejections) {
    evictions_ = evictions;
    oversized_rejections_ = oversized_rejections;
  }

 private:
  // One heap block per entry; the key's bytes follow the struct.
  struct Node {
    Node* prev;   // toward the most recently used; null at mru_
    Node* next;   // toward the least recently used; null at lru_
    Node* chain;  // next node in the same bucket
    uint32_t hash;
    uint32_t key_size;
    Value value;

    std::string_view key() const {
      return {reinterpret_cast<const char*>(this) + sizeof(Node), key_size};
    }
  };
  static_assert(alignof(Node) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  static constexpr size_t kMinBuckets = 8;

  static uint32_t HashOf(std::string_view key) {
    return static_cast<uint32_t>(Murmur3_64(key));
  }

  static Node* NewNode(std::string_view key, uint32_t hash, Value&& value) {
    void* block = ::operator new(sizeof(Node) + key.size());
    Node* node;
    try {
      node = ::new (block) Node{nullptr, nullptr, nullptr, hash,
                                static_cast<uint32_t>(key.size()),
                                std::move(value)};
    } catch (...) {
      ::operator delete(block);
      throw;
    }
    if (!key.empty()) {
      std::memcpy(reinterpret_cast<char*>(node) + sizeof(Node), key.data(),
                  key.size());
    }
    return node;
  }

  static void DeleteNode(Node* node) {
    node->~Node();
    ::operator delete(static_cast<void*>(node));
  }

  void DeleteNodes() {
    for (Node* node = mru_; node != nullptr;) {
      Node* next = node->next;
      DeleteNode(node);
      node = next;
    }
  }

  Node* Find(std::string_view key, uint32_t hash) const {
    if (size_ == 0) return nullptr;
    for (Node* node = buckets_[hash & (bucket_count_ - 1)]; node != nullptr;
         node = node->chain) {
      if (node->hash == hash && node->key() == key) return node;
    }
    return nullptr;
  }
  Node* Find(std::string_view key) const {
    return size_ == 0 ? nullptr : Find(key, HashOf(key));
  }

  // Doubles the bucket array (or creates the first one) and rechains
  // every node into it.
  void Grow() {
    const size_t count = bucket_count_ == 0 ? kMinBuckets : bucket_count_ * 2;
    auto buckets = std::make_unique<Node*[]>(count);
    for (Node* node = mru_; node != nullptr; node = node->next) {
      Node*& head = buckets[node->hash & (count - 1)];
      node->chain = head;
      head = node;
    }
    buckets_ = std::move(buckets);
    bucket_count_ = count;
  }

  void LinkFront(Node* node) {
    node->prev = nullptr;
    node->next = mru_;
    (mru_ != nullptr ? mru_->prev : lru_) = node;
    mru_ = node;
  }
  void Unlink(Node* node) {
    (node->prev != nullptr ? node->prev->next : mru_) = node->next;
    (node->next != nullptr ? node->next->prev : lru_) = node->prev;
  }
  void MoveToFront(Node* node) {
    if (node == mru_) return;
    Unlink(node);
    LinkFront(node);
  }

  // Unchains, unlinks and frees `node`, releasing its budget share.
  void Remove(Node* node) {
    used_bytes_ -= size_fn_(node->value);
    Node** link = &buckets_[node->hash & (bucket_count_ - 1)];
    while (*link != node) link = &(*link)->chain;
    *link = node->chain;
    Unlink(node);
    --size_;
    DeleteNode(node);
  }

  void EvictToBudget() {
    if (capacity_bytes_ == 0) return;
    while (used_bytes_ > capacity_bytes_ && lru_ != nullptr) {
      Remove(lru_);
      ++evictions_;
    }
  }

  size_t capacity_bytes_;
  SizeFn size_fn_;
  Node* mru_ = nullptr;
  Node* lru_ = nullptr;
  std::unique_ptr<Node*[]> buckets_;  // bucket_count_ chain heads
  size_t bucket_count_ = 0;           // 0 or a power of two >= size_
  size_t size_ = 0;
  size_t used_bytes_ = 0;
  uint64_t evictions_ = 0;
  uint64_t oversized_rejections_ = 0;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_LRU_CACHE_H_
