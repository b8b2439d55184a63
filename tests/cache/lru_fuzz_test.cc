// Randomized differential test: LruCache against a trivially-correct
// reference model, across capacities and operation mixes. Thousands of
// distinct keys make the index grow through several rehashes; the key set
// includes the empty key, short and long keys, keys with embedded NULs and
// keys that are prefixes of one another. The full recency order is
// compared at intervals, and the cache is moved partway through.
#include <gtest/gtest.h>

#include <list>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/lru_cache.h"
#include "common/random.h"

namespace speedkit::cache {
namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

// Reference: ordered list of (key, value), front = most recent, with the
// same byte budget and whole-entry eviction policy.
class ReferenceLru {
 public:
  explicit ReferenceLru(size_t capacity) : capacity_(capacity) {}

  const std::string* Get(const std::string& key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.splice(order_.begin(), order_, it);
        return &order_.front().second;
      }
    }
    return nullptr;
  }

  const std::string* Peek(const std::string& key) const {
    for (const auto& [k, v] : order_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  void Put(const std::string& key, std::string value) {
    if (capacity_ != 0 && value.size() > capacity_) {
      if (Erase(key)) ++evictions_;
      return;
    }
    Erase(key);
    order_.emplace_front(key, std::move(value));
    if (capacity_ != 0) {
      size_t used = used_bytes();
      while (used > capacity_ && !order_.empty()) {
        used -= order_.back().second.size();
        order_.pop_back();
        ++evictions_;
      }
    }
  }

  bool Erase(const std::string& key) {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->first == key) {
        order_.erase(it);
        return true;
      }
    }
    return false;
  }

  void Clear() { order_.clear(); }

  Entries LruToMru() const { return Entries(order_.rbegin(), order_.rend()); }

  size_t size() const { return order_.size(); }
  size_t used_bytes() const {
    size_t used = 0;
    for (const auto& [k, v] : order_) used += v.size();
    return used;
  }
  uint64_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  std::list<std::pair<std::string, std::string>> order_;
  uint64_t evictions_ = 0;
};

Entries LruToMru(const LruCache<std::string>& cache) {
  Entries entries;
  cache.ForEachLruToMru([&entries](std::string_view key,
                                   const std::string& value) {
    entries.emplace_back(std::string(key), value);
  });
  return entries;
}

// About 2,700 distinct keys of every shape the index must tell apart.
std::vector<std::string> KeyPool(Pcg32& rng) {
  std::vector<std::string> keys = {"", std::string(1, '\0')};
  for (int i = 0; i < 1000; ++i) keys.push_back(std::to_string(i) + "k");
  // 40 to 200 bytes, all sharing a 37-byte prefix; the digits end before
  // the 'p' padding, so no two coincide.
  for (int i = 0; i < 1000; ++i) {
    std::string key = "https://shop.example.com/api/records/";
    key += std::to_string(i);
    key.resize(40 + rng.NextBounded(161), 'p');
    keys.push_back(std::move(key));
  }
  for (int i = 0; i < 500; ++i) {
    std::string key("nul\0", 4);
    key += std::to_string(i);
    key += '\0';
    keys.push_back(std::move(key));
  }
  // "a", "ab", "abc", ...: each key a prefix of the next.
  std::string chain;
  for (int i = 0; i < 200; ++i) {
    chain += static_cast<char>('a' + i % 26);
    keys.push_back(chain);
  }
  return keys;
}

class LruFuzz : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {
};

TEST_P(LruFuzz, MatchesReferenceModel) {
  auto [capacity, seed] = GetParam();
  const LruCache<std::string>::SizeFn by_size = [](const std::string& s) {
    return s.size();
  };
  LruCache<std::string> cache(capacity, by_size);
  ReferenceLru reference(capacity);
  Pcg32 rng(seed);
  const std::vector<std::string> keys = KeyPool(rng);
  constexpr int kOps = 8000;

  for (int op = 0; op < kOps; ++op) {
    const std::string& key = keys[rng.NextBounded(keys.size())];
    uint32_t kind = rng.NextBounded(1000);
    if (kind < 400) {  // Put with random size and fill
      std::string value(rng.NextBounded(40),
                        static_cast<char>('a' + op % 26));
      EXPECT_EQ(cache.Put(key, value) == PutOutcome::kAdmitted,
                capacity == 0 || value.size() <= capacity);
      reference.Put(key, value);
    } else if (kind < 650) {  // Get
      std::string* got = cache.Get(key);
      const std::string* expected = reference.Get(key);
      ASSERT_EQ(got != nullptr, expected != nullptr) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, *expected) << "op " << op;
      }
    } else if (kind < 800) {  // Peek: must leave recency alone
      const std::string* got = cache.Peek(key);
      const std::string* expected = reference.Peek(key);
      ASSERT_EQ(got != nullptr, expected != nullptr) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, *expected) << "op " << op;
      }
    } else {  // Erase
      ASSERT_EQ(cache.Erase(key), reference.Erase(key)) << "op " << op;
    }

    if (op == kOps / 3) {  // move-construct, then move-assign back
      LruCache<std::string> moved(std::move(cache));
      cache = std::move(moved);
      ASSERT_EQ(moved.size(), 0u);
      ASSERT_EQ(moved.Get(key), nullptr);
    } else if (op == 2 * kOps / 3) {  // move-assign over a non-empty cache
      LruCache<std::string> other(capacity, by_size);
      other.Put("displaced", "x");
      other = std::move(cache);
      cache = std::move(other);
    } else if (op == 3 * kOps / 4) {  // the index then grows from nothing
      cache.Clear();
      reference.Clear();
    }

    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.used_bytes(), reference.used_bytes()) << "op " << op;
    ASSERT_EQ(cache.evictions(), reference.evictions()) << "op " << op;
    if (op % 97 == 0 || op == kOps - 1) {
      ASSERT_EQ(LruToMru(cache), reference.LruToMru()) << "op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndSeeds, LruFuzz,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{50}, size_t{200},
                                         size_t{1000}, size_t{8000}),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace speedkit::cache
