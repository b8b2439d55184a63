#include "http/message.h"

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

TEST(MessageTest, MissingCacheControlParsesAsEmpty) {
  HttpResponse resp;
  CacheControl cc = resp.GetCacheControl();
  EXPECT_FALSE(cc.max_age.has_value());
  EXPECT_FALSE(cc.no_store);
}

}  // namespace
}  // namespace speedkit::http
