// The wire codec is the trust boundary of the socketed tier: bytes from
// the network either parse into exactly one well-formed message or the
// connection dies. Framing (incremental parse, pipelining, Content-Length)
// and the serialize->parse round trip are pinned here.
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "net/http_codec.h"

namespace speedkit::net {
namespace {

TEST(HttpCodecTest, ParsesARequestWithHeadersAndBody) {
  const std::string wire =
      "POST /api/records/1 HTTP/1.1\r\n"
      "Host: shop.example.com\r\n"
      "X-SpeedKit-Client: 7\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello";
  WireRequest req;
  size_t consumed = 0;
  ASSERT_EQ(ParseRequest(wire, &req, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(req.method, http::Method::kPost);
  EXPECT_EQ(req.target, "/api/records/1");
  EXPECT_EQ(req.headers.Get("Host"), "shop.example.com");
  EXPECT_EQ(req.headers.Get("X-SpeedKit-Client"), "7");
  EXPECT_EQ(req.body, "hello");
  EXPECT_TRUE(req.keep_alive);  // HTTP/1.1 default
}

TEST(HttpCodecTest, IncrementalFeedReportsNeedMoreUntilComplete) {
  const std::string wire =
      "GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc";
  WireRequest req;
  size_t consumed = 0;
  // Every strict prefix is kNeedMore — never kError, never a short parse.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_EQ(ParseRequest(wire.substr(0, len), &req, &consumed),
              ParseStatus::kNeedMore)
        << "prefix length " << len;
  }
  ASSERT_EQ(ParseRequest(wire, &req, &consumed), ParseStatus::kOk);
  EXPECT_EQ(req.body, "abc");
}

TEST(HttpCodecTest, PipelinedRequestsParseInSequence) {
  const std::string wire =
      "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: h\r\n\r\n";
  WireRequest req;
  size_t consumed = 0;
  ASSERT_EQ(ParseRequest(wire, &req, &consumed), ParseStatus::kOk);
  EXPECT_EQ(req.target, "/a");
  std::string_view rest = std::string_view(wire).substr(consumed);
  ASSERT_EQ(ParseRequest(rest, &req, &consumed), ParseStatus::kOk);
  EXPECT_EQ(req.target, "/b");
  EXPECT_EQ(consumed, rest.size());
}

TEST(HttpCodecTest, ConnectionHeaderControlsKeepAlive) {
  WireRequest req;
  size_t consumed = 0;
  ASSERT_EQ(ParseRequest("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &req,
                         &consumed),
            ParseStatus::kOk);
  EXPECT_FALSE(req.keep_alive);
  ASSERT_EQ(ParseRequest("GET / HTTP/1.0\r\n\r\n", &req, &consumed),
            ParseStatus::kOk);
  EXPECT_FALSE(req.keep_alive);  // 1.0 defaults to close
  ASSERT_EQ(ParseRequest(
                "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", &req,
                &consumed),
            ParseStatus::kOk);
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpCodecTest, MalformedInputIsAnErrorNotAGuess) {
  WireRequest req;
  size_t consumed = 0;
  EXPECT_EQ(ParseRequest("NONSENSE\r\n\r\n", &req, &consumed),
            ParseStatus::kError);
  EXPECT_EQ(ParseRequest("GET /x HTTP/2\r\n\r\n", &req, &consumed),
            ParseStatus::kError);
  EXPECT_EQ(
      ParseRequest("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", &req,
                   &consumed),
      ParseStatus::kError);
  // Chunked transfer is deliberately unsupported: error, never mis-framed.
  EXPECT_EQ(ParseRequest(
                "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", &req,
                &consumed),
            ParseStatus::kError);
}

TEST(HttpCodecTest, OversizedHeaderBlockIsRejected) {
  std::string wire = "GET /x HTTP/1.1\r\nX-Pad: ";
  wire.append(kMaxHeaderBytes, 'a');
  WireRequest req;
  size_t consumed = 0;
  EXPECT_EQ(ParseRequest(wire, &req, &consumed), ParseStatus::kError);
}

TEST(HttpCodecTest, OversizedBodyIsRejected) {
  std::string wire = "GET /x HTTP/1.1\r\nContent-Length: " +
                     std::to_string(kMaxBodyBytes + 1) + "\r\n\r\n";
  WireRequest req;
  size_t consumed = 0;
  EXPECT_EQ(ParseRequest(wire, &req, &consumed), ParseStatus::kError);
}

TEST(HttpCodecTest, RequestSerializeParseRoundTrips) {
  http::HeaderMap headers;
  headers.Set("Host", "shop.example.com");
  headers.Set("X-SpeedKit-Client", "3");
  std::string wire =
      SerializeRequest(http::Method::kGet, "/api/records/9?v=1", headers);

  WireRequest req;
  size_t consumed = 0;
  ASSERT_EQ(ParseRequest(wire, &req, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(req.method, http::Method::kGet);
  EXPECT_EQ(req.target, "/api/records/9?v=1");
  EXPECT_EQ(req.headers.Get("Host"), "shop.example.com");
  EXPECT_EQ(req.headers.Get("X-SpeedKit-Client"), "3");
}

TEST(HttpCodecTest, ResponseSerializeParseRoundTrips) {
  http::HeaderMap headers;
  headers.Set("Content-Type", "application/json");
  headers.Set("X-SpeedKit-Source", "edge");
  std::string wire = SerializeResponse(200, headers, "{\"ok\":true}", true);

  WireResponse resp;
  size_t consumed = 0;
  ASSERT_EQ(ParseResponse(wire, &resp, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(resp.status_code, 200);
  EXPECT_EQ(resp.body, "{\"ok\":true}");
  EXPECT_EQ(resp.headers.Get("X-SpeedKit-Source"), "edge");
  EXPECT_TRUE(resp.keep_alive);

  // keep_alive=false emits Connection: close, and the parser honors it.
  std::string closing = SerializeResponse(421, headers, "elsewhere", false);
  ASSERT_EQ(ParseResponse(closing, &resp, &consumed), ParseStatus::kOk);
  EXPECT_EQ(resp.status_code, 421);
  EXPECT_FALSE(resp.keep_alive);
}

TEST(HttpCodecTest, SerializeOwnsFramingHeaders) {
  // Content-Length/Connection from the caller's map are ignored in favor
  // of the actual body size and keep-alive argument — a stale framing
  // header copied from a cached response must not corrupt the stream.
  http::HeaderMap headers;
  headers.Set("Content-Length", "9999");
  headers.Set("Connection", "close");
  std::string wire = SerializeResponse(200, headers, "four", true);

  WireResponse resp;
  size_t consumed = 0;
  ASSERT_EQ(ParseResponse(wire, &resp, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(resp.body, "four");
  EXPECT_TRUE(resp.keep_alive);
}

// A joined body goes on the wire chunk by chunk, as its flat twin's bytes.
TEST(HttpCodecTest, JoinedBodySerializesLikeItsFlatTwin) {
  http::HeaderMap headers;
  headers.Set("Content-Type", "application/json");
  http::Body record("{\"id\":\"p1\"}");
  http::Body joined = http::Body::Join(
      "{\"results\":[", {record, record, http::Body("{\"id\":\"p2\"}")}, ",",
      "]}");
  http::Body flat(joined.ToString());
  std::string wire = SerializeResponse(200, headers, joined, true);
  EXPECT_EQ(wire, SerializeResponse(200, headers, flat, true));

  WireResponse resp;
  size_t consumed = 0;
  ASSERT_EQ(ParseResponse(wire, &resp, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(resp.body, "{\"results\":[{\"id\":\"p1\"},{\"id\":\"p1\"},"
                       "{\"id\":\"p2\"}]}");
}

bool SameRequest(const WireRequest& a, const WireRequest& b) {
  return a.method == b.method && a.target == b.target &&
         a.headers == b.headers && a.body == b.body &&
         a.keep_alive == b.keep_alive;
}

bool SameResponse(const WireResponse& a, const WireResponse& b) {
  return a.status_code == b.status_code && a.headers == b.headers &&
         a.body == b.body && a.keep_alive == b.keep_alive;
}

// Two pipelined messages in `wire`, fed as a connection's buffer holds
// them after a read that ends at each offset: the first parse reads
// kNeedMore until the first message is whole and then parses it as the
// whole buffer does; the bytes after it do the same for the second.
template <typename Message>
void ExpectEverySplitParsesLikeTheWhole(
    std::string_view wire,
    ParseStatus (*parse)(std::string_view, Message*, size_t*),
    bool (*same)(const Message&, const Message&)) {
  Message first;
  Message second;
  size_t first_size = 0;
  size_t second_size = 0;
  ASSERT_EQ(parse(wire, &first, &first_size), ParseStatus::kOk);
  ASSERT_EQ(parse(wire.substr(first_size), &second, &second_size),
            ParseStatus::kOk);
  ASSERT_EQ(first_size + second_size, wire.size());
  for (size_t split = 0; split <= wire.size(); ++split) {
    std::string_view fed = wire.substr(0, split);
    Message got;
    size_t consumed = 0;
    if (split < first_size) {
      EXPECT_EQ(parse(fed, &got, &consumed), ParseStatus::kNeedMore) << split;
      continue;
    }
    ASSERT_EQ(parse(fed, &got, &consumed), ParseStatus::kOk) << split;
    EXPECT_EQ(consumed, first_size) << split;
    EXPECT_TRUE(same(got, first)) << split;
    fed.remove_prefix(consumed);
    if (split < wire.size()) {
      EXPECT_EQ(parse(fed, &got, &consumed), ParseStatus::kNeedMore) << split;
      continue;
    }
    ASSERT_EQ(parse(fed, &got, &consumed), ParseStatus::kOk) << split;
    EXPECT_EQ(consumed, second_size) << split;
    EXPECT_TRUE(same(got, second)) << split;
  }
}

TEST(HttpCodecTest, PipelinedRequestsSplitAtEveryOffsetParseAsAWhole) {
  const std::string wire =
      "GET /api/records/1 HTTP/1.1\r\nHost: shop.example.com\r\n"
      "If-None-Match: \"v1\"\r\nX-SpeedKit-Client: 7\r\n\r\n"
      "POST /api/records/2 HTTP/1.0\r\nHost: shop.example.com\r\n"
      "Cache-Control: no-cache\r\nContent-Length: 5\r\n\r\nhello";
  ExpectEverySplitParsesLikeTheWhole<WireRequest>(wire, &ParseRequest,
                                                  &SameRequest);
}

TEST(HttpCodecTest, PipelinedResponsesSplitAtEveryOffsetParseAsAWhole) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Cache-Control: public, max-age=60, stale-while-revalidate=6\r\n"
      "ETag: \"v1\"\r\nContent-Length: 5\r\n\r\nhello"
      "HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n"
      "Cache-Control: max-age=30\r\nConnection: close\r\n\r\n";
  ExpectEverySplitParsesLikeTheWhole<WireResponse>(wire, &ParseResponse,
                                                   &SameResponse);
  WireResponse resp;
  size_t consumed = 0;
  ASSERT_EQ(ParseResponse(wire, &resp, &consumed), ParseStatus::kOk);
  EXPECT_EQ(resp.headers.GetCacheControl().max_age, Duration::Seconds(60));
}

// As many one-byte fields as fit the header cap: the head is one block,
// built without a pass per field, with every field in order.
TEST(HttpCodecTest, ManyOneByteFieldsParseInOrder) {
  constexpr size_t kFields = 3268;
  std::string wire = "GET / HTTP/1.1\r\n";
  for (size_t i = 0; i < kFields; ++i) wire += "a:b\r\n";
  wire += "\r\n";
  ASSERT_LE(wire.size(), kMaxHeaderBytes + 4);
  WireRequest req;
  size_t consumed = 0;
  ASSERT_EQ(ParseRequest(wire, &req, &consumed), ParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  ASSERT_EQ(req.headers.size(), kFields);
  size_t seen = 0;
  for (const auto& [name, value] : req.headers) {
    EXPECT_EQ(name, "a");
    EXPECT_EQ(value, "b");
    ++seen;
  }
  EXPECT_EQ(seen, kFields);
  EXPECT_EQ(req.headers.WireSize(), kFields * 6);  // "a: b\r\n"
}

TEST(HttpCodecTest, StatusTextCoversTheCodesTheTierEmits) {
  EXPECT_EQ(StatusText(200), "OK");
  EXPECT_EQ(StatusText(400), "Bad Request");
  EXPECT_EQ(StatusText(421), "Misdirected Request");
  EXPECT_EQ(StatusText(405), "Method Not Allowed");
  EXPECT_EQ(StatusText(599), "Unknown");
}

}  // namespace
}  // namespace speedkit::net
