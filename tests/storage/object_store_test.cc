#include "storage/object_store.h"

#include <gtest/gtest.h>

namespace speedkit::storage {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

TEST(RecordTest, FieldAccessAndRender) {
  Record r;
  r.id = "p1";
  r.version = 3;
  r.fields["price"] = 19.5;
  r.fields["title"] = std::string("Shoe");
  r.fields["stock"] = static_cast<int64_t>(7);
  r.fields["on_sale"] = true;
  ASSERT_NE(r.GetField("price"), nullptr);
  EXPECT_EQ(r.GetField("missing"), nullptr);
  std::string body = r.Render();
  EXPECT_NE(body.find("\"id\":\"p1\""), std::string::npos);
  EXPECT_NE(body.find("\"version\":3"), std::string::npos);
  EXPECT_NE(body.find("\"title\":\"Shoe\""), std::string::npos);
  EXPECT_NE(body.find("\"on_sale\":true"), std::string::npos);
  EXPECT_NE(body.find("\"stock\":7"), std::string::npos);
}

TEST(RecordTest, RenderIsDeterministic) {
  Record r;
  r.id = "x";
  r.fields["b"] = static_cast<int64_t>(2);
  r.fields["a"] = static_cast<int64_t>(1);
  EXPECT_EQ(r.Render(), r.Render());
  // Ordered map: "a" renders before "b" regardless of insertion order.
  EXPECT_LT(r.Render().find("\"a\""), r.Render().find("\"b\""));
}

TEST(CompareFieldsTest, NumericCrossTypeComparison) {
  EXPECT_EQ(CompareFields(FieldValue(static_cast<int64_t>(5)),
                          FieldValue(5.0)).value(), 0);
  EXPECT_LT(CompareFields(FieldValue(static_cast<int64_t>(4)),
                          FieldValue(5.0)).value(), 0);
  EXPECT_GT(CompareFields(FieldValue(6.0),
                          FieldValue(static_cast<int64_t>(5))).value(), 0);
}

TEST(CompareFieldsTest, StringsAndBools) {
  EXPECT_LT(CompareFields(FieldValue(std::string("a")),
                          FieldValue(std::string("b"))).value(), 0);
  EXPECT_EQ(CompareFields(FieldValue(true), FieldValue(true)).value(), 0);
  EXPECT_GT(CompareFields(FieldValue(true), FieldValue(false)).value(), 0);
}

TEST(CompareFieldsTest, IncomparableTypesReturnNullopt) {
  EXPECT_FALSE(CompareFields(FieldValue(std::string("a")),
                             FieldValue(static_cast<int64_t>(1))).has_value());
  EXPECT_FALSE(CompareFields(FieldValue(true), FieldValue(1.0)).has_value());
}

TEST(ObjectStoreTest, PutInsertsWithVersionOne) {
  ObjectStore store;
  uint64_t v = store.Put("p1", {{"price", 10.0}}, At(0));
  EXPECT_EQ(v, 1u);
  auto r = store.Get("p1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version, 1u);
  EXPECT_EQ(store.VersionOf("p1"), 1u);
}

TEST(ObjectStoreTest, PutReplacesAndBumpsVersion) {
  ObjectStore store;
  store.Put("p1", {{"price", 10.0}, {"old", true}}, At(0));
  uint64_t v = store.Put("p1", {{"price", 12.0}}, At(1));
  EXPECT_EQ(v, 2u);
  auto r = store.Get("p1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetField("old"), nullptr);  // full replace
}

TEST(ObjectStoreTest, UpdateOfDeletedRecordReinsertsIt) {
  ObjectStore store;
  store.Put("p1", {{"price", 10.0}, {"old", true}}, At(0));
  ASSERT_TRUE(store.Delete("p1", At(1)).ok());
  bool before_deleted = false;
  bool after_deleted = true;
  store.AddWriteListener([&](const Record* before, const Record& after) {
    before_deleted = before != nullptr && before->deleted;
    after_deleted = after.deleted;
  });
  EXPECT_EQ(store.Update("p1", {{"price", 12.0}}, At(2)), 3u);
  auto r = store.Get("p1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version, 3u);
  EXPECT_EQ(r->GetField("old"), nullptr);  // inserted afresh, not merged
  EXPECT_TRUE(before_deleted);
  EXPECT_FALSE(after_deleted);
}

TEST(ObjectStoreTest, UpdateMergesFields) {
  ObjectStore store;
  store.Put("p1", {{"price", 10.0}, {"stock", static_cast<int64_t>(5)}},
            At(0));
  store.Update("p1", {{"price", 11.0}}, At(1));
  auto r = store.Get("p1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->version, 2u);
  EXPECT_NE(r->GetField("stock"), nullptr);  // preserved
  EXPECT_EQ(std::get<double>(*r->GetField("price")), 11.0);
}

TEST(ObjectStoreTest, UpdateOfAbsentKeyInserts) {
  ObjectStore store;
  store.Update("new", {{"x", true}}, At(0));
  EXPECT_TRUE(store.Get("new").ok());
}

TEST(ObjectStoreTest, GetMissingIsNotFound) {
  ObjectStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.VersionOf("nope"), 0u);
}

TEST(ObjectStoreTest, DeleteTombstonesAndBumpsVersion) {
  ObjectStore store;
  store.Put("p1", {{"x", true}}, At(0));
  ASSERT_TRUE(store.Delete("p1", At(1)).ok());
  EXPECT_TRUE(store.Get("p1").status().IsNotFound());
  EXPECT_EQ(store.VersionOf("p1"), 2u);  // tombstone is a new version
  EXPECT_EQ(store.Peek("p1"), nullptr);
  EXPECT_TRUE(store.Delete("p1", At(2)).IsNotFound());
}

TEST(ObjectStoreTest, ListenersSeeBeforeAndAfterImages) {
  ObjectStore store;
  // The before pointer is only valid during the callback: copy inside.
  std::optional<Record> seen_before;
  Record seen_after;
  store.AddWriteListener([&](const Record* before, const Record& after) {
    seen_before = before != nullptr ? std::optional<Record>(*before)
                                    : std::nullopt;
    seen_after = after;
  });
  store.Put("p1", {{"price", 10.0}}, At(0));
  EXPECT_FALSE(seen_before.has_value());  // insert: no before image
  EXPECT_EQ(seen_after.version, 1u);

  store.Update("p1", {{"price", 12.0}}, At(1));
  ASSERT_TRUE(seen_before.has_value());
  EXPECT_EQ(std::get<double>(*seen_before->GetField("price")), 10.0);
  EXPECT_EQ(std::get<double>(*seen_after.GetField("price")), 12.0);

  store.Delete("p1", At(2));
  EXPECT_TRUE(seen_after.deleted);
}

TEST(ObjectStoreTest, ScanSkipsDeleted) {
  ObjectStore store;
  store.Put("a", {}, At(0));
  store.Put("b", {}, At(0));
  store.Delete("a", At(1));
  int count = 0;
  store.Scan([&](const Record& r) {
    ++count;
    EXPECT_EQ(r.id, "b");
  });
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace speedkit::storage
