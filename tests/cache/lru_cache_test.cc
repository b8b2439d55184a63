#include "cache/lru_cache.h"

#include <sys/mman.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/strings.h"

namespace speedkit::cache {
namespace {

LruCache<std::string>::SizeFn BySize() {
  return [](const std::string& s) { return s.size(); };
}

TEST(LruCacheTest, PutGetRoundTrip) {
  LruCache<int> cache(0);
  cache.Put("a", 1);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 1);
  EXPECT_EQ(cache.Get("b"), nullptr);
}

TEST(LruCacheTest, PutReplacesValue) {
  LruCache<int> cache(0);
  cache.Put("a", 1);
  cache.Put("a", 2);
  EXPECT_EQ(*cache.Get("a"), 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string> cache(10, BySize());
  cache.Put("a", "12345");  // 5 bytes
  cache.Put("b", "12345");  // 5 bytes, at budget
  cache.Get("a");           // touch a: b is now LRU
  cache.Put("c", "12345");  // evicts b
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, PeekDoesNotTouchRecency) {
  LruCache<std::string> cache(10, BySize());
  cache.Put("a", "12345");
  cache.Put("b", "12345");
  cache.Peek("a");          // must NOT promote a
  cache.Put("c", "12345");  // evicts a (still LRU)
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("b"), nullptr);
}

TEST(LruCacheTest, OversizedEntryNotAdmitted) {
  LruCache<std::string> cache(4, BySize());
  cache.Put("big", "123456789");
  EXPECT_EQ(cache.Get("big"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, OversizedReplacementErasesOld) {
  LruCache<std::string> cache(4, BySize());
  cache.Put("k", "12");
  cache.Put("k", "123456789");  // too big: old entry must go too
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST(LruCacheTest, UnboundedNeverEvicts) {
  LruCache<std::string> cache(0, BySize());
  for (int i = 0; i < 1000; ++i) {
    cache.Put(StrFormat("k%d", i), std::string(100, 'x'));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, ByteAccountingOnReplace) {
  LruCache<std::string> cache(100, BySize());
  cache.Put("a", std::string(40, 'x'));
  EXPECT_EQ(cache.used_bytes(), 40u);
  cache.Put("a", std::string(10, 'x'));
  EXPECT_EQ(cache.used_bytes(), 10u);
  cache.Erase("a");
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(LruCacheTest, EraseMissingReturnsFalse) {
  LruCache<int> cache(0);
  EXPECT_FALSE(cache.Erase("x"));
  cache.Put("x", 1);
  EXPECT_TRUE(cache.Erase("x"));
}

TEST(LruCacheTest, ClearEmptiesEverything) {
  LruCache<std::string> cache(100, BySize());
  cache.Put("a", "xyz");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(LruCacheTest, HeterogeneousLookupNeedsNoKeyCopy) {
  LruCache<int> cache(0);
  cache.Put("alpha", 1);
  cache.Put("beta", 2);
  // string_view (and string literal) keys probe the index directly via
  // transparent hashing — no std::string materialization per lookup.
  std::string_view alpha_view("alpha");
  ASSERT_NE(cache.Get(alpha_view), nullptr);
  EXPECT_EQ(*cache.Get(alpha_view), 1);
  EXPECT_NE(cache.Peek(std::string_view("beta")), nullptr);
  EXPECT_EQ(cache.Get(std::string_view("gamma")), nullptr);
  EXPECT_TRUE(cache.Erase(std::string_view("alpha")));
  EXPECT_EQ(cache.Get(alpha_view), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

// Key lengths are stored in 32 bits, so a longer key is refused before
// any of its bytes are read. Its address range is reserved, never touched.
TEST(LruCacheTest, RejectsKeysLongerThanUint32Max) {
  const size_t length = size_t{std::numeric_limits<uint32_t>::max()} + 1;
  void* range = mmap(nullptr, length, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(range, MAP_FAILED);
  LruCache<int> cache(0);
  cache.Put("kept", 1);
  EXPECT_THROW(
      cache.Put(std::string_view(static_cast<const char*>(range), length), 2),
      std::length_error);
  munmap(range, length);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get("kept"), nullptr);
}

TEST(LruCacheTest, EvictionCascadeForLargeInsert) {
  LruCache<std::string> cache(10, BySize());
  cache.Put("a", "123");
  cache.Put("b", "123");
  cache.Put("c", "123");  // 9 bytes used
  cache.Put("d", "1234567890");  // exactly at budget: evicts all three
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get("d"), nullptr);
  EXPECT_EQ(cache.evictions(), 3u);
}

// Each entry block carries its key's bytes, and the bucket array chains
// the blocks. A moved cache takes both over; short and long keys must stay
// reachable and erasable through it, or ASan flags the dangling block.
LruCache<std::string> FilledCache() {
  LruCache<std::string> cache(40, BySize());
  cache.Put("short", "12345");
  cache.Put("https://shop.example.com/api/records/p1", "12345");
  cache.Put("s2", "12345");
  cache.Put("https://shop.example.com/api/records/p2", "12345");
  return cache;
}

void ExpectWorkingCache(LruCache<std::string>& cache) {
  ASSERT_EQ(cache.size(), 4u);
  EXPECT_NE(cache.Get("short"), nullptr);
  EXPECT_NE(cache.Get("https://shop.example.com/api/records/p1"), nullptr);
  EXPECT_NE(cache.Peek("s2"), nullptr);
  // Replace in place, then erase one short and one long key.
  cache.Put("short", "1234567");
  EXPECT_EQ(*cache.Get("short"), "1234567");
  EXPECT_TRUE(cache.Erase("s2"));
  EXPECT_TRUE(cache.Erase("https://shop.example.com/api/records/p2"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Erase("https://shop.example.com/api/records/p1"));
  EXPECT_EQ(cache.Get("https://shop.example.com/api/records/p1"), nullptr);
  // Fill past the 40-byte budget: "short" (7 B) is the LRU victim.
  cache.Put("https://shop.example.com/api/records/p3", std::string(20, 'x'));
  cache.Put("tiny", std::string(15, 'y'));
  EXPECT_EQ(cache.Get("short"), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Get("tiny"), nullptr);
  EXPECT_NE(cache.Get("https://shop.example.com/api/records/p3"), nullptr);
  EXPECT_EQ(cache.used_bytes(), 35u);
}

TEST(LruCacheTest, MoveConstructedCacheKeepsItsKeys) {
  LruCache<std::string> source = FilledCache();
  LruCache<std::string> moved(std::move(source));
  ExpectWorkingCache(moved);
}

TEST(LruCacheTest, MoveAssignedCacheKeepsItsKeys) {
  LruCache<std::string> target(40, BySize());
  target.Put("old-short", "1");
  target.Put("https://shop.example.com/api/records/old", "1");
  LruCache<std::string> source = FilledCache();
  target = std::move(source);
  EXPECT_EQ(target.Get("old-short"), nullptr);
  ExpectWorkingCache(target);
  // The moved-from cache is reusable.
  source = LruCache<std::string>(40, BySize());
  source.Put("again", "1");
  EXPECT_NE(source.Get("again"), nullptr);
}

}  // namespace
}  // namespace speedkit::cache
