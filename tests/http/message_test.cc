#include "http/message.h"

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
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

// Every form of Body is one pointer to one intrusively counted block.
static_assert(sizeof(Body) == 8);

// Copies share one block, a move hands it over, and a moved-from body is
// empty and shares with nothing; assigning a body to itself keeps it.
TEST(MessageTest, BodyCopyMoveAndSelfAssignmentKeepSharingTruthful) {
  const Body original("payload");
  Body copy = original;
  EXPECT_TRUE(copy.SharesBufferWith(original));
  Body moved = std::move(copy);
  EXPECT_TRUE(moved.SharesBufferWith(original));
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.size(), 0u);
  EXPECT_FALSE(copy.SharesBufferWith(original));
  EXPECT_FALSE(original.SharesBufferWith(copy));

  Body& alias = moved;
  moved = alias;
  EXPECT_TRUE(moved.SharesBufferWith(original));
  moved = std::move(alias);
  EXPECT_TRUE(moved.SharesBufferWith(original));
  EXPECT_EQ(moved, "payload");

  copy = original;  // a moved-from body takes a new value
  EXPECT_TRUE(copy.SharesBufferWith(original));
  Body joined = Body::Join("<", {original}, "", ">");
  copy = joined;  // over a held block
  EXPECT_TRUE(copy.SharesBufferWith(joined));
  EXPECT_FALSE(copy.SharesBufferWith(original));
  joined = Body();
  EXPECT_TRUE(joined.empty());
  EXPECT_FALSE(joined.SharesBufferWith(copy));
  EXPECT_EQ(copy, "<payload>");
  EXPECT_EQ(original, "payload");
}

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

// A joined block holds its parts: with every other holder of them gone, a
// joined body, and a join of joined bodies, still serves the same bytes.
TEST(MessageTest, JoinedBodyOutlivesEveryOtherHolderOfItsParts) {
  const std::string alpha(40, 'a');
  const std::string beta(40, 'b');
  Body joined;
  Body nested;
  {
    Body a(alpha);
    Body b(beta);
    joined = Body::Join("[", {a, b}, ",", "]");
    Body inner = Body::Join("<", {b, a}, "|", ">");
    nested = Body::Join("{", {joined, inner, joined}, ";", "}");
  }
  const std::string flat = "[" + alpha + "," + beta + "]";
  const std::string inner_flat = "<" + beta + "|" + alpha + ">";
  const std::string nested_flat =
      "{" + flat + ";" + inner_flat + ";" + flat + "}";
  EXPECT_EQ(joined.size(), flat.size());
  EXPECT_EQ(joined.ToString(), flat);
  EXPECT_EQ(joined, flat);
  EXPECT_EQ(joined, Body(flat));
  EXPECT_EQ(nested.size(), nested_flat.size());
  std::ostringstream printed;
  printed << nested;
  EXPECT_EQ(printed.str(), nested_flat);
  EXPECT_EQ(nested, nested_flat);
  EXPECT_EQ(Body(nested_flat), nested);

  joined = Body();  // the nested body still holds it twice
  EXPECT_EQ(nested.ToString(), nested_flat);
}

TEST(MessageTest, MissingCacheControlParsesAsEmpty) {
  HttpResponse resp;
  CacheControl cc = resp.GetCacheControl();
  EXPECT_FALSE(cc.max_age.has_value());
  EXPECT_FALSE(cc.no_store);
}

// Copies of one body may live and die on different threads; the function-
// local static bodies of MakeNotFound are shared by every thread. Each
// round two threads copy and drop a flat, an adopted and a joined body,
// and join them into bodies they destroy, while the main thread holds the
// last copy of each. The two threads also hold the only two copies of one
// more body, so whichever drops it last frees what the other just read
// (run under TSan in CI).
TEST(BodyConcurrencyTest, CopiesDroppedOnTwoThreadsLeaveTheLastHolderIntact) {
  const std::string flat_bytes(64, 'f');
  const std::string adopted_bytes(64, 's');
  const std::string joined_bytes = "[" + flat_bytes + "," + adopted_bytes + "]";
  for (int round = 0; round < 200; ++round) {
    Body flat(flat_bytes);
    Body adopted(std::make_shared<const std::string>(adopted_bytes));
    Body joined = Body::Join("[", {flat, adopted}, ",", "]");
    Body theirs[2];
    theirs[0] = Body::Join("<", {flat}, "", ">");
    theirs[1] = theirs[0];
    bool served[2] = {false, false};
    auto worker = [&](int id) {
      const Body mine = std::move(theirs[id]);
      bool ok = mine == "<" + flat_bytes + ">";
      for (int i = 0; i < 8; ++i) {
        Body copies[] = {flat, adopted, joined, MakeNotFound().body};
        Body nested = Body::Join("", {copies[0], copies[2]}, "", "");
        ok = ok && nested.size() == flat_bytes.size() + joined_bytes.size() &&
             copies[1] == adopted_bytes && copies[3] == "not found";
      }
      served[id] = ok;
    };
    std::thread a(worker, 0);
    std::thread b(worker, 1);
    a.join();
    b.join();
    EXPECT_TRUE(served[0]);
    EXPECT_TRUE(served[1]);
    EXPECT_EQ(flat, flat_bytes);
    EXPECT_EQ(adopted, adopted_bytes);
    EXPECT_EQ(joined, joined_bytes);
    EXPECT_EQ(joined.ToString(), joined_bytes);
  }
}

}  // namespace
}  // namespace speedkit::http
