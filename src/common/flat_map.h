// Insert-only open-addressing hash map keyed by std::string — the hot-path
// container behind the origin's expiry book.
//
// Layout: one contiguous slot array (power-of-two capacity), linear
// probing, Murmur3 hashes cached per slot so rehash and probe compares
// never touch key bytes unless the hashes already match. The table doubles
// at 7/8 load. Nothing is ever erased, so a probe ends at the first empty
// slot. Probes accept string_view, so lookups never materialize a
// temporary std::string — same heterogeneous-lookup guarantee the cache
// tiers get from StringHash, without the node allocations of
// std::unordered_map.
#ifndef SPEEDKIT_COMMON_FLAT_MAP_H_
#define SPEEDKIT_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace speedkit {

template <typename V>
class FlatStringMap {
 public:
  FlatStringMap() { slots_.resize(kMinCapacity); }

  size_t size() const { return size_; }

  // Pointer to the value for `key`, or null. Stable only until the next
  // insertion (a rehash moves slots).
  V* Find(std::string_view key) {
    Slot& slot = slots_[Probe(key, Murmur3_64(key))];
    return slot.full ? &slot.value : nullptr;
  }
  const V* Find(std::string_view key) const {
    return const_cast<FlatStringMap*>(this)->Find(key);
  }

  // Inserts (key, value) if absent; returns {pointer to the stored value,
  // whether an insert happened}. An existing entry is left untouched.
  std::pair<V*, bool> Upsert(std::string_view key, V value) {
    MaybeGrow();
    uint64_t hash = Murmur3_64(key);
    Slot& slot = slots_[Probe(key, hash)];
    if (slot.full) return {&slot.value, false};
    slot.key.assign(key.data(), key.size());
    slot.value = std::move(value);
    slot.hash = hash;
    slot.full = true;
    ++size_;
    return {&slot.value, true};
  }

 private:
  struct Slot {
    std::string key;
    V value{};
    uint64_t hash = 0;
    bool full = false;
  };

  static constexpr size_t kMinCapacity = 16;

  // The slot holding `key`, or the empty slot that ends its probe run.
  size_t Probe(std::string_view key, uint64_t hash) const {
    size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].full && (slots_[i].hash != hash || slots_[i].key != key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Doubles the table when one more entry would pass 7/8 of capacity —
  // linear probing degrades sharply past that point.
  void MaybeGrow() {
    if ((size_ + 1) * 8 < slots_.size() * 7) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    size_t mask = slots_.size() - 1;
    for (Slot& slot : old) {
      if (!slot.full) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].full) i = (i + 1) & mask;
      slots_[i] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace speedkit

#endif  // SPEEDKIT_COMMON_FLAT_MAP_H_
