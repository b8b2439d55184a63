// Byte-budgeted LRU map, string-keyed.
//
// The eviction unit is whole entries; the budget is the sum of a
// caller-supplied size function over resident values (so an HTTP cache can
// charge body bytes while a fragment cache charges rendered-fragment
// bytes). Recency is a doubly-linked list threaded through the hash map —
// O(1) touch, insert, evict. Each key is stored once, in its list node;
// the hash index holds a view of it.
#ifndef SPEEDKIT_CACHE_LRU_CACHE_H_
#define SPEEDKIT_CACHE_LRU_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

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
  using SizeFn = std::function<size_t(const Value&)>;

  // `capacity_bytes` of 0 means unbounded (useful in protocol unit tests).
  explicit LruCache(size_t capacity_bytes,
                    SizeFn size_fn = [](const Value&) { return size_t{1}; })
      : capacity_bytes_(capacity_bytes), size_fn_(std::move(size_fn)) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;
  // Movable (list nodes survive a list move, so index_'s iterators and key
  // views stay valid) — lets owners swap in a fresh cache to actually
  // release bucket/node memory, which Clear() does not.
  LruCache(LruCache&&) = default;
  LruCache& operator=(LruCache&&) = default;

  // Returns the resident value and marks it most-recently-used.
  // Heterogeneous index lookup: the string_view key is hashed and compared
  // in place, no temporary std::string per probe.
  Value* Get(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  // Lookup without touching recency (metrics probes).
  const Value* Peek(std::string_view key) const {
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  // Inserts or replaces; evicts LRU entries until within budget. An entry
  // larger than the whole budget is not admitted (see PutOutcome) — the
  // caller decides whether a rejection needs surfacing (an HTTP cache
  // counts it as a store reject so hit-rate accounting stays truthful).
  PutOutcome Put(std::string_view key, Value value) {
    size_t value_bytes = size_fn_(value);
    if (capacity_bytes_ != 0 && value_bytes > capacity_bytes_) {
      if (Erase(key)) ++evictions_;  // capacity pushed out the resident
      ++oversized_rejections_;
      return PutOutcome::kRejectedOversized;
    }
    auto it = index_.find(key);
    if (it != index_.end()) {
      used_bytes_ -= size_fn_(it->second->value);
      it->second->value = std::move(value);
      used_bytes_ += value_bytes;
      order_.splice(order_.begin(), order_, it->second);
    } else {
      order_.push_front(Node{std::string(key), std::move(value)});
      index_.emplace(std::string_view(order_.front().key), order_.begin());
      used_bytes_ += value_bytes;
    }
    EvictToBudget();
    return PutOutcome::kAdmitted;
  }

  bool Erase(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    used_bytes_ -= size_fn_(it->second->value);
    auto node = it->second;
    index_.erase(it);
    order_.erase(node);
    return true;
  }

  void Clear() {
    index_.clear();
    order_.clear();
    used_bytes_ = 0;
  }

  // Removes entries matching `pred`; returns how many were removed.
  size_t EraseIf(const std::function<bool(const std::string&, const Value&)>& pred) {
    size_t removed = 0;
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(it->key, it->value)) {
        used_bytes_ -= size_fn_(it->value);
        index_.erase(it->key);
        it = order_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  // Visits entries from least- to most-recently-used. Re-inserting in
  // visit order via Put reconstructs the exact recency chain — the
  // browser-cache freeze/thaw codec depends on this.
  template <typename Fn>  // Fn(const std::string& key, const Value&)
  void ForEachLruToMru(Fn fn) const {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      fn(it->key, it->value);
    }
  }

  size_t size() const { return index_.size(); }
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
  struct Node {
    std::string key;
    Value value;
  };

  void EvictToBudget() {
    if (capacity_bytes_ == 0) return;
    while (used_bytes_ > capacity_bytes_ && !order_.empty()) {
      Node& victim = order_.back();
      used_bytes_ -= size_fn_(victim.value);
      index_.erase(victim.key);
      order_.pop_back();
      ++evictions_;
    }
  }

  size_t capacity_bytes_;
  SizeFn size_fn_;
  std::list<Node> order_;  // front = most recent
  // Keyed by views of the nodes' own keys. A view stays valid until its
  // node is erased (nodes never move, even inline short-string keys), and
  // every erase drops the index entry before the node.
  std::unordered_map<std::string_view, typename std::list<Node>::iterator,
                     StringHash, std::equal_to<>>
      index_;
  size_t used_bytes_ = 0;
  uint64_t evictions_ = 0;
  uint64_t oversized_rejections_ = 0;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_LRU_CACHE_H_
