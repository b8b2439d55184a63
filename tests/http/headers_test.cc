#include "http/headers.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace speedkit::http {
namespace {

TEST(HeaderMapTest, SetAndGetCaseInsensitive) {
  HeaderMap h;
  h.Set("Cache-Control", "max-age=60");
  EXPECT_EQ(h.Get("cache-control").value(), "max-age=60");
  EXPECT_EQ(h.Get("CACHE-CONTROL").value(), "max-age=60");
  EXPECT_FALSE(h.Get("ETag").has_value());
}

TEST(HeaderMapTest, SetReplacesAllValues) {
  HeaderMap h;
  h.Add("X-A", "1");
  h.Add("x-a", "2");
  h.Set("X-A", "3");
  EXPECT_EQ(h.GetAll("x-a").size(), 1u);
  EXPECT_EQ(h.Get("x-a").value(), "3");
}

TEST(HeaderMapTest, AddKeepsMultipleValues) {
  HeaderMap h;
  h.Add("Set-Cookie", "a=1");
  h.Add("Set-Cookie", "b=2");
  auto all = h.GetAll("set-cookie");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "a=1");
  EXPECT_EQ(all[1], "b=2");
  // Get returns the first.
  EXPECT_EQ(h.Get("set-cookie").value(), "a=1");
}

TEST(HeaderMapTest, RemoveDeletesAllMatches) {
  HeaderMap h;
  h.Add("X", "1");
  h.Add("x", "2");
  h.Add("Y", "3");
  h.Remove("X");
  EXPECT_FALSE(h.Has("x"));
  EXPECT_TRUE(h.Has("y"));
  EXPECT_EQ(h.size(), 1u);
}

TEST(HeaderMapTest, IterationPreservesInsertionOrder) {
  HeaderMap h;
  h.Add("B", "2");
  h.Add("A", "1");
  std::vector<std::string> names;
  for (const auto& [name, value] : h) names.emplace_back(name);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "B");
  EXPECT_EQ(names[1], "A");
}

TEST(HeaderMapTest, WireSizeCountsSeparators) {
  HeaderMap h;
  h.Set("AB", "cd");  // "AB: cd\r\n" = 8 bytes
  EXPECT_EQ(h.WireSize(), 8u);
}

TEST(HeaderMapTest, EmptyMap) {
  HeaderMap h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.WireSize(), 0u);
  EXPECT_TRUE(h.GetAll("x").empty());
}

TEST(HeaderMapTest, CopySharesTheBlock) {
  HeaderMap original;
  original.Set("Cache-Control", "public, max-age=60");
  original.Set("ETag", "\"v1\"");
  HeaderMap copy = original;
  EXPECT_TRUE(copy.SharesStorageWith(original));
  EXPECT_TRUE(original.SharesStorageWith(copy));
  HeaderMap assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.SharesStorageWith(original));
  // Equal entries built separately are equal, but not shared.
  HeaderMap twin;
  twin.Set("Cache-Control", "public, max-age=60");
  twin.Set("ETag", "\"v1\"");
  EXPECT_EQ(twin, original);
  EXPECT_FALSE(twin.SharesStorageWith(original));
  // Empty maps hold no block, so they share nothing.
  EXPECT_FALSE(HeaderMap().SharesStorageWith(HeaderMap()));
}

TEST(HeaderMapTest, MoveHandsOverTheBlock) {
  HeaderMap original;
  original.Set("A", "1");
  HeaderMap copy = original;
  HeaderMap moved = std::move(copy);
  EXPECT_TRUE(moved.SharesStorageWith(original));
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  HeaderMap target;
  target.Set("B", "2");
  target = std::move(moved);
  EXPECT_TRUE(target.SharesStorageWith(original));
  EXPECT_EQ(target.Get("a").value(), "1");
  EXPECT_FALSE(target.Has("B"));
}

// Every mutator, on either side of a copy, in either order, leaves the
// other side exactly as it was.
TEST(HeaderMapTest, MutatingEitherCopyLeavesTheOtherUnchanged) {
  using Mutation = void (*)(HeaderMap*);
  const std::vector<Mutation> mutations = {
      [](HeaderMap* h) { h->Set("ETag", "\"v2\""); },
      [](HeaderMap* h) { h->Set("Vary", "Accept"); },
      [](HeaderMap* h) { h->Add("Cache-Control", "no-transform"); },
      [](HeaderMap* h) { h->Remove("cache-control"); },
  };
  auto make = [] {
    HeaderMap h;
    h.Set("Cache-Control", "public, max-age=60");
    h.Set("ETag", "\"v1\"");
    return h;
  };
  const HeaderMap pristine = make();
  for (const Mutation& mutate : mutations) {
    for (bool mutate_copy : {true, false}) {
      HeaderMap original = make();
      HeaderMap copy = original;
      HeaderMap& changed = mutate_copy ? copy : original;
      const HeaderMap& kept = mutate_copy ? original : copy;
      mutate(&changed);
      EXPECT_EQ(kept, pristine);
      EXPECT_NE(changed, pristine);
      EXPECT_FALSE(changed.SharesStorageWith(kept));
      // Now the other side, after the first already split off.
      HeaderMap& second = mutate_copy ? original : copy;
      HeaderMap snapshot = changed;
      mutate(&second);
      EXPECT_EQ(changed, snapshot);
    }
  }
}

TEST(HeaderMapTest, RemovingAnAbsentNameKeepsTheBlockShared) {
  HeaderMap original;
  original.Set("ETag", "\"v1\"");
  HeaderMap copy = original;
  copy.Remove("Vary");
  EXPECT_TRUE(copy.SharesStorageWith(original));
  copy.Remove("etag");
  EXPECT_FALSE(copy.SharesStorageWith(original));
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(original.Get("ETag").value(), "\"v1\"");
}

// Maps sharing one block may live on different threads. Each round two
// threads mutate the only two copies of a block at once, so one of them
// may find itself the last holder and write in place while the other is
// still splitting off (run under TSan in CI).
TEST(HeaderMapConcurrencyTest, CopiesMutatedOnTwoThreadsStayIndependent) {
  for (int round = 0; round < 200; ++round) {
    HeaderMap copies[2];
    {
      HeaderMap first;
      first.Set("Cache-Control", "public, max-age=60");
      first.Set("ETag", "\"v1\"");
      copies[0] = first;
      copies[1] = first;
    }
    auto worker = [&copies](int id) {
      HeaderMap& mine = copies[id];
      mine.Set("X-Worker", std::to_string(id));
      mine.Remove("ETag");
      mine.Add("X-Round", "r");
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();
    for (int id = 0; id < 2; ++id) {
      EXPECT_EQ(copies[id].size(), 3u);
      EXPECT_EQ(copies[id].Get("Cache-Control").value(), "public, max-age=60");
      EXPECT_EQ(copies[id].Get("X-Worker").value(), std::to_string(id));
      EXPECT_FALSE(copies[id].Has("ETag"));
    }
    EXPECT_FALSE(copies[0].SharesStorageWith(copies[1]));
  }
}

// The memo is built with the block, never lazily, so threads holding
// copies of one block read it with no synchronization while others split
// off and drop their copies (run under TSan in CI).
TEST(HeaderMapConcurrencyTest, CacheControlMemoIsReadOnTwoThreads) {
  for (int round = 0; round < 200; ++round) {
    HeaderMap copies[2];
    {
      HeaderMap first;
      first.Set("Cache-Control", "public, max-age=60, stale-while-revalidate=6");
      first.Set("ETag", "\"v1\"");
      copies[0] = first;
      copies[1] = first;
    }
    CacheControl seen[2][2];
    auto worker = [&copies, &seen](int id) {
      HeaderMap& mine = copies[id];
      seen[id][0] = mine.GetCacheControl();
      mine.Set("X-Worker", std::to_string(id));  // keeps the memo
      seen[id][1] = mine.GetCacheControl();
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();
    for (int id = 0; id < 2; ++id) {
      for (const CacheControl& cc : seen[id]) {
        EXPECT_TRUE(cc.is_public);
        EXPECT_EQ(cc.max_age, Duration::Seconds(60));
        EXPECT_EQ(cc.stale_while_revalidate, Duration::Seconds(6));
      }
    }
  }
}

}  // namespace
}  // namespace speedkit::http
