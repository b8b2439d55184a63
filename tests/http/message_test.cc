#include "http/message.h"

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace speedkit::http {
namespace {

TEST(MessageTest, MethodNames) {
  EXPECT_EQ(MethodName(Method::kGet), "GET");
  EXPECT_EQ(MethodName(Method::kPost), "POST");
  EXPECT_EQ(MethodName(Method::kDelete), "DELETE");
}

TEST(MessageTest, OnlyGetAndHeadCacheable) {
  EXPECT_TRUE(IsCacheableMethod(Method::kGet));
  EXPECT_TRUE(IsCacheableMethod(Method::kHead));
  EXPECT_FALSE(IsCacheableMethod(Method::kPost));
  EXPECT_FALSE(IsCacheableMethod(Method::kPut));
  EXPECT_FALSE(IsCacheableMethod(Method::kPatch));
  EXPECT_FALSE(IsCacheableMethod(Method::kDelete));
}

TEST(MessageTest, RequestConditionalDetection) {
  HttpRequest req = HttpRequest::Get(*Url::Parse("https://a.com/x"));
  EXPECT_FALSE(req.IsConditional());
  req.headers.Set("If-None-Match", "\"v1\"");
  EXPECT_TRUE(req.IsConditional());
}

TEST(MessageTest, MakeOkResponseCarriesEverything) {
  CacheControl cc;
  cc.is_public = true;
  cc.max_age = Duration::Seconds(60);
  HttpResponse resp =
      MakeOkResponse("body", cc, /*object_version=*/7,
                     SimTime::FromMicros(1000));
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.body, "body");
  EXPECT_EQ(resp.object_version, 7u);
  EXPECT_EQ(resp.generated_at.micros(), 1000);
  EXPECT_EQ(resp.GetCacheControl().max_age.value(), Duration::Seconds(60));
}

TEST(MessageTest, NotModifiedHasNoBody) {
  CacheControl cc;
  cc.max_age = Duration::Seconds(5);
  HttpResponse resp = MakeNotModified("\"v3\"", cc, 3, SimTime::Origin());
  EXPECT_TRUE(resp.IsNotModified());
  EXPECT_FALSE(resp.ok());
  EXPECT_TRUE(resp.body.empty());
  EXPECT_EQ(resp.ETag(), "\"v3\"");
}

TEST(MessageTest, ETagRoundTrip) {
  HttpResponse resp;
  EXPECT_EQ(resp.ETag(), "");
  resp.SetETag("\"abc\"");
  EXPECT_EQ(resp.ETag(), "\"abc\"");
}

TEST(MessageTest, WireSizeGrowsWithBodyAndHeaders) {
  HttpResponse small;
  small.body = "x";
  HttpResponse big;
  big.body = std::string(1000, 'x');
  big.headers.Set("ETag", "\"v1\"");
  EXPECT_GT(big.WireSize(), small.WireSize());
  EXPECT_GE(big.WireSize(), 1000u);
}

TEST(MessageTest, ErrorFactories) {
  EXPECT_EQ(MakeNotFound().status_code, 404);
  EXPECT_EQ(MakeServiceUnavailable().status_code, 503);
  EXPECT_FALSE(MakeServiceUnavailable().ok());
}

// Cached bodies live as long as their cache entries: growth slack left by
// the renderer must not ride along.
TEST(MessageTest, BodyDropsSpareCapacity) {
  std::string bytes;
  bytes.reserve(4096);
  bytes.append(100, 'x');
  ASSERT_GT(bytes.capacity(), bytes.size());
  Body body(std::move(bytes));
  EXPECT_EQ(body.size(), 100u);
  EXPECT_EQ(body.capacity(), body.size());
}

TEST(MessageTest, BodyCopiesShareOneBuffer) {
  Body a(std::string(64, 'y'));
  Body b = a;
  EXPECT_TRUE(a.SharesBufferWith(b));
  Body twin(std::string(64, 'y'));
  EXPECT_EQ(a, twin);  // equal bytes ...
  EXPECT_FALSE(a.SharesBufferWith(twin));  // ... in a different buffer
  EXPECT_TRUE(Body().empty());
  EXPECT_FALSE(Body().SharesBufferWith(Body()));
}

// Every form of Body is one shared pointer.
static_assert(sizeof(Body) == 16);

// An adopted buffer is served as is, not copied.
TEST(MessageTest, AdoptedBodyServesTheSharedBuffer) {
  auto shared = std::make_shared<const std::string>(64, 's');
  Body body(shared);
  EXPECT_EQ(body.size(), 64u);
  body.ForEachChunk([&shared](std::string_view chunk) {
    EXPECT_EQ(chunk.data(), shared->data());
  });
  EXPECT_EQ(body, *shared);
}

// A joined body is its head, then its parts with a separator between each
// pair, then its tail. Each part's bytes come out of that part's own
// buffer, and equality and printing walk the chunks.
TEST(MessageTest, JoinedBodyWalksItsSharedParts) {
  Body a("alpha-record");
  Body b("beta-record");
  Body joined = Body::Join("[", {a, b, a}, ",", "]");
  const std::string flat = "[alpha-record,beta-record,alpha-record]";
  EXPECT_EQ(joined.size(), flat.size());
  EXPECT_EQ(joined.ToString(), flat);
  std::string appended = ">";
  joined.AppendTo(&appended);
  EXPECT_EQ(appended, ">[alpha-record,beta-record,alpha-record]");

  std::vector<std::string_view> chunks;
  joined.ForEachChunk(
      [&chunks](std::string_view chunk) { chunks.push_back(chunk); });
  ASSERT_EQ(chunks.size(), 7u);  // head, a, sep, b, sep, a, tail
  a.ForEachChunk([&chunks](std::string_view chunk) {
    EXPECT_EQ(chunks[1].data(), chunk.data());
    EXPECT_EQ(chunks[5].data(), chunk.data());
  });

  Body twin(flat);
  EXPECT_EQ(joined, twin);
  EXPECT_EQ(twin, joined);
  EXPECT_EQ(joined, flat);
  // Equal bytes cut at other chunk boundaries.
  EXPECT_EQ(joined, Body::Join("", {Body("[alpha-rec"),
                                    Body("ord,beta-record,al"),
                                    Body("pha-record]")},
                               "", ""));
  EXPECT_FALSE(joined == Body::Join("[", {b, a, a}, ",", "]"));
  std::ostringstream printed;
  printed << joined;
  EXPECT_EQ(printed.str(), flat);

  Body copy = joined;
  EXPECT_TRUE(copy.SharesBufferWith(joined));
  EXPECT_FALSE(twin.SharesBufferWith(joined));
  EXPECT_EQ(Body::Join("[", {}, ",", "]"), "[]");
  EXPECT_TRUE(Body::Join("", {}, ",", "").empty());
}

TEST(MessageTest, MissingCacheControlParsesAsEmpty) {
  HttpResponse resp;
  CacheControl cc = resp.GetCacheControl();
  EXPECT_FALSE(cc.max_age.has_value());
  EXPECT_FALSE(cc.no_store);
}

}  // namespace
}  // namespace speedkit::http
