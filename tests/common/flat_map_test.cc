#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <string>

namespace speedkit {
namespace {

std::string Key(int i) { return "https://shop.example.com/api/k" + std::to_string(i); }

TEST(FlatStringMapTest, UpsertAndFind) {
  FlatStringMap<int> map;
  EXPECT_EQ(map.size(), 0u);
  auto [v, inserted] = map.Upsert("a", 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 1);
  EXPECT_EQ(map.size(), 1u);

  // A second Upsert of the same key leaves the stored value untouched.
  auto [v2, inserted2] = map.Upsert("a", 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 1);
  EXPECT_EQ(map.size(), 1u);

  ASSERT_NE(map.Find("a"), nullptr);
  EXPECT_EQ(*map.Find("a"), 1);
  EXPECT_EQ(map.Find("missing"), nullptr);
}

TEST(FlatStringMapTest, FindAcceptsStringView) {
  FlatStringMap<int> map;
  map.Upsert("hello", 7);
  std::string_view view("hello-world", 5);
  ASSERT_NE(map.Find(view), nullptr);
  EXPECT_EQ(*map.Find(view), 7);
}

TEST(FlatStringMapTest, GrowthPreservesEntries) {
  FlatStringMap<int> map;
  constexpr int kN = 5000;  // far past kMinCapacity: several rehashes
  for (int i = 0; i < kN; ++i) map.Upsert(Key(i), i);
  EXPECT_EQ(map.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_NE(map.Find(Key(i)), nullptr) << Key(i);
    EXPECT_EQ(*map.Find(Key(i)), i);
  }
  // A probe for an absent key still ends at an empty slot.
  EXPECT_EQ(map.Find(Key(kN)), nullptr);
}

}  // namespace
}  // namespace speedkit
