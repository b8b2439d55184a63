// End-to-end exercise of the socketed edge node: a real EdgedServer on an
// ephemeral localhost port, spoken to over genuine TCP with the same
// codec the loadgen uses. Pins the protocol surface (admin endpoints,
// X-SpeedKit-* annotations, 400/405/421 behavior) and that the cached
// request path really runs the simulator's tiering — a repeat fetch by
// the same client comes back marked "browser".
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "http/url.h"
#include "net/edged_server.h"
#include "net/http_codec.h"
#include "net/tcp_listener.h"
#include "workload/catalog.h"

namespace speedkit::net {
namespace {

class EdgedSocketTest : public ::testing::Test {
 protected:
  void StartServer(EdgedConfig config) {
    config.host = "127.0.0.1";
    config.port = 0;
    server_ = std::make_unique<EdgedServer>(config);
    ASSERT_TRUE(server_->Start());
    server_thread_ = std::thread([this] { server_->Run(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
      server_thread_.join();
    }
  }

  // Opens a fresh blocking connection to the server.
  int Connect() {
    int fd = TcpConnect("127.0.0.1", server_->port(), 2000);
    EXPECT_GE(fd, 0);
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
    return fd;
  }

  // One request/response over an established connection.
  WireResponse RoundTrip(int fd, std::string_view target,
                         uint64_t client_id = 0) {
    http::HeaderMap headers;
    headers.Set("Host", "shop.example.com");
    headers.Set("X-SpeedKit-Client", std::to_string(client_id));
    std::string wire = SerializeRequest(http::Method::kGet, target, headers);
    EXPECT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    return ReadResponse(fd);
  }

  WireResponse ReadResponse(int fd) {
    WireResponse resp;
    std::string buf;
    while (true) {
      size_t consumed = 0;
      ParseStatus st = ParseResponse(buf, &resp, &consumed);
      if (st == ParseStatus::kOk) break;
      EXPECT_NE(st, ParseStatus::kError) << buf.substr(0, 200);
      if (st == ParseStatus::kError) break;
      char chunk[16 * 1024];
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection died mid-response";
        break;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
    return resp;
  }

  // A product path the populated catalog serves (rank 0). ProductUrl is
  // rng-independent, so any Catalog instance with the same config agrees
  // with the server's.
  std::string ProductTarget(const EdgedConfig& config, size_t rank) {
    workload::Catalog catalog(config.catalog, Pcg32(1));
    std::string url = catalog.ProductUrl(rank);
    // Strip "https://shop.example.com" down to the origin-form target.
    return url.substr(url.find('/', std::string("https://").size()));
  }

  std::unique_ptr<EdgedServer> server_;
  std::thread server_thread_;
};

TEST_F(EdgedSocketTest, AdminEndpointsAnswer) {
  EdgedConfig config;
  config.catalog.num_products = 50;
  StartServer(config);
  int fd = Connect();

  WireResponse health = RoundTrip(fd, "/healthz");
  EXPECT_EQ(health.status_code, 200);
  EXPECT_EQ(health.body, "ok\n");

  WireResponse ring = RoundTrip(fd, "/ringz");
  EXPECT_EQ(ring.status_code, 200);
  EXPECT_NE(ring.body.ToString().find("\"edge-0\""), std::string::npos);

  WireResponse metrics = RoundTrip(fd, "/metricsz");
  EXPECT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.body.ToString().find("\"net.requests\""), std::string::npos);
  EXPECT_NE(metrics.body.ToString().find("\"proxy\""), std::string::npos);
  ::close(fd);
}

TEST_F(EdgedSocketTest, CachedPathRunsTheSimulatorTiering) {
  EdgedConfig config;
  config.catalog.num_products = 50;
  StartServer(config);
  int fd = Connect();
  std::string target = ProductTarget(config, 0);

  WireResponse first = RoundTrip(fd, target, /*client_id=*/1);
  EXPECT_EQ(first.status_code, 200);
  EXPECT_FALSE(first.body.empty());
  ASSERT_TRUE(first.headers.Get("X-SpeedKit-Source").has_value());
  ASSERT_TRUE(first.headers.Get("X-SpeedKit-Latency-Us").has_value());

  // The same client asking again is served from its browser cache — the
  // whole point of running the real proxy behind the socket.
  WireResponse second = RoundTrip(fd, target, /*client_id=*/1);
  EXPECT_EQ(second.status_code, 200);
  EXPECT_EQ(second.headers.Get("X-SpeedKit-Source"), "browser");
  EXPECT_EQ(second.body, first.body);

  // A different client has no browser copy but shares the edge tier.
  WireResponse other = RoundTrip(fd, target, /*client_id=*/2);
  EXPECT_EQ(other.status_code, 200);
  EXPECT_NE(other.headers.Get("X-SpeedKit-Source"), "browser");
  ::close(fd);
}

TEST_F(EdgedSocketTest, ProtocolErrorsAreRejected) {
  EdgedConfig config;
  config.catalog.num_products = 10;
  StartServer(config);

  // Non-GET on a cached path: 405.
  int fd = Connect();
  http::HeaderMap headers;
  headers.Set("Host", "shop.example.com");
  std::string post =
      SerializeRequest(http::Method::kPost, "/api/records/x", headers);
  ASSERT_EQ(::send(fd, post.data(), post.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(post.size()));
  EXPECT_EQ(ReadResponse(fd).status_code, 405);
  ::close(fd);

  // Malformed bytes: 400 and the connection closes.
  fd = Connect();
  const char garbage[] = "NOT HTTP AT ALL\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL), 0);
  EXPECT_EQ(ReadResponse(fd).status_code, 400);
  char extra;
  EXPECT_EQ(::recv(fd, &extra, 1, 0), 0);  // EOF: server closed
  ::close(fd);

  // Missing Host: the cache identity cannot be built.
  fd = Connect();
  std::string hostless = "GET /api/records/x HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, hostless.data(), hostless.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hostless.size()));
  EXPECT_EQ(ReadResponse(fd).status_code, 400);
  ::close(fd);
}

TEST_F(EdgedSocketTest, MisroutedKeysGet421WhenRejecting) {
  EdgedConfig config;
  config.node_name = "edge-a";
  config.ring_nodes = {"edge-a", "edge-b"};
  config.reject_misrouted = true;
  config.catalog.num_products = 200;
  StartServer(config);

  // Find one key the ring assigns to us and one it assigns to edge-b.
  HashRing ring(config.ring_replicas);
  ring.AddNode("edge-a");
  ring.AddNode("edge-b");
  workload::Catalog catalog(config.catalog, Pcg32(1));
  std::string ours, theirs;
  for (size_t rank = 0; rank < 200 && (ours.empty() || theirs.empty());
       ++rank) {
    std::string url = catalog.ProductUrl(rank);
    std::string target = url.substr(url.find('/', 8));
    // Route on the cache key exactly as the server does.
    std::string key = http::Url::Parse(url)->CacheKey();
    (ring.NodeFor(key) == "edge-a" ? ours : theirs) = target;
  }
  ASSERT_FALSE(ours.empty());
  ASSERT_FALSE(theirs.empty());

  int fd = Connect();
  EXPECT_EQ(RoundTrip(fd, ours).status_code, 200);
  WireResponse rejected = RoundTrip(fd, theirs);
  EXPECT_EQ(rejected.status_code, 421);
  EXPECT_EQ(rejected.headers.Get("X-SpeedKit-Owner"), "edge-b");
  ::close(fd);
}

}  // namespace
}  // namespace speedkit::net
