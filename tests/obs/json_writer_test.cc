#include "obs/json_writer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace speedkit::obs {
namespace {

TEST(JsonValueTest, ScalarsDump) {
  EXPECT_EQ(JsonValue(nullptr).Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(static_cast<uint64_t>(1) << 40).Dump(), "1099511627776");
  EXPECT_EQ(JsonValue(1.5).Dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonValueTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
  EXPECT_EQ(JsonValue(1.0 / 0.0).Dump(), "null");
}

TEST(JsonValueTest, StringsAreEscaped) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(JsonValue(std::string(1, '\x01')).Dump(), "\"\\u0001\"");
}

TEST(JsonValueTest, ObjectKeepsInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zebra", 1);
  obj.Set("alpha", 2);
  std::string dump = obj.Dump();
  EXPECT_LT(dump.find("zebra"), dump.find("alpha"));
}

TEST(JsonValueTest, SetOverwritesInPlace) {
  JsonValue obj = JsonValue::Object();
  obj.Set("k", 1);
  obj.Set("other", 2);
  obj.Set("k", 3);
  EXPECT_EQ(obj.size(), 2u);
  std::string dump = obj.Dump(0);
  EXPECT_NE(dump.find("\"k\": 3"), std::string::npos);
  EXPECT_LT(dump.find("\"k\""), dump.find("\"other\""));
}

TEST(JsonValueTest, EmptyContainers) {
  EXPECT_EQ(JsonValue::Object().Dump(), "{}");
  EXPECT_EQ(JsonValue::Array().Dump(), "[]");
}

TEST(JsonValueTest, NestedStructureDumpIsDeterministic) {
  JsonValue root = JsonValue::Object();
  root.Set("bench", "test");
  JsonValue rows = JsonValue::Array();
  rows.Push(JsonRow({{"a", 1}, {"b", 2.5}}));
  rows.Push(JsonRow({{"a", 3}, {"b", false}}));
  root.Set("rows", std::move(rows));
  EXPECT_EQ(root.Dump(),
            "{\n"
            "  \"bench\": \"test\",\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"a\": 1,\n"
            "      \"b\": 2.5\n"
            "    },\n"
            "    {\n"
            "      \"a\": 3,\n"
            "      \"b\": false\n"
            "    }\n"
            "  ]\n"
            "}");
}

TEST(JsonWriterTest, WritesFileWithTrailingNewline) {
  std::string path = ::testing::TempDir() + "/json_writer_test.json";
  JsonValue root = JsonValue::Object();
  root.Set("x", 1);
  ASSERT_TRUE(WriteJsonFile(path, root));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{\n  \"x\": 1\n}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace speedkit::obs
