// Socket quickstart: boot a real speedkit-edged node in-process, talk to
// it over genuine TCP with the HTTP/1.1 codec, and watch the same cache
// tiering the simulator models answer on the wire — browser-cache repeat
// hits, per-client isolation, and the admin endpoints.
//
//   cmake --build build && ./build/examples/socket_quickstart
//
// The operator view of everything shown here is docs/OPERATIONS.md.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "common/random.h"
#include "net/edged_server.h"
#include "net/http_codec.h"
#include "net/tcp_listener.h"
#include "workload/catalog.h"

using namespace speedkit;

namespace {

// Sends one GET and blocks until the full response is parsed.
net::WireResponse Fetch(int fd, const std::string& target,
                        uint64_t client_id) {
  http::HeaderMap headers;
  headers.Set("Host", "shop.example.com");
  headers.Set("X-SpeedKit-Client", std::to_string(client_id));
  std::string wire =
      net::SerializeRequest(http::Method::kGet, target, headers);
  (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);

  net::WireResponse resp;
  std::string buf;
  while (true) {
    size_t consumed = 0;
    net::ParseStatus st = net::ParseResponse(buf, &resp, &consumed);
    if (st == net::ParseStatus::kOk) return resp;
    char chunk[16 * 1024];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      std::fprintf(stderr, "connection died mid-response\n");
      std::exit(1);
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

void Show(const char* label, const net::WireResponse& r) {
  std::printf("  %-34s -> %d, source=%s, modeled %s us\n", label,
              r.status_code,
              std::string(r.headers.Get("X-SpeedKit-Source").value_or("-"))
                  .c_str(),
              std::string(r.headers.Get("X-SpeedKit-Latency-Us").value_or("-"))
                  .c_str());
}

}  // namespace

int main() {
  std::printf("Speed Kit socket quickstart\n===========================\n\n");

  // 1. One edge node on an ephemeral localhost port. This is the exact
  //    server `tools/speedkit-edged` runs: an epoll loop in front of the
  //    simulator's SpeedKitStack, wall time mapped 1:1 onto sim time.
  net::EdgedConfig config;
  config.catalog.num_products = 100;
  config.stack.cdn_edges = 1;  // one edge, so both demo clients share it
  net::EdgedServer server(config);
  if (!server.Start()) {
    std::fprintf(stderr, "failed to bind\n");
    return 1;
  }
  std::thread loop([&] { server.Run(); });
  std::printf("node %s listening on 127.0.0.1:%u\n\n",
              server.config().node_name.c_str(), unsigned{server.port()});

  // 2. A real TCP connection (the codec is the one the loadgen uses).
  int fd = net::TcpConnect("127.0.0.1", server.port(), 2000);
  if (fd < 0) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);  // blocking I/O for the demo

  // 3. The catalog the server populated is reconstructible client-side:
  //    ProductUrl(rank) does not depend on the RNG, so any client knows
  //    the keyspace. Strip the scheme+host down to the request target.
  workload::Catalog catalog(config.catalog, Pcg32(1));
  std::string url = catalog.ProductUrl(0);
  std::string target = url.substr(url.find('/', std::string("https://").size()));

  // 4. Client 1's first fetch descends to the origin; the repeat is a
  //    browser-cache hit — the per-client proxy lives behind the socket.
  std::printf("client 1, cold and warm:\n");
  Show("first fetch", Fetch(fd, target, 1));
  Show("same client again", Fetch(fd, target, 1));

  // 5. Client 2 has no browser copy but shares the edge tier, so it is
  //    served from the edge cache the first fetch filled.
  std::printf("\nclient 2, sharing only the edge:\n");
  Show("different client", Fetch(fd, target, 2));

  // 6. Admin endpoints: liveness, ring topology, live wire metrics.
  std::printf("\nadmin surface:\n");
  Show("/healthz", Fetch(fd, "/healthz", 0));
  net::WireResponse ring = Fetch(fd, "/ringz", 0);
  std::printf("  /ringz body: %s", ring.body.ToString().c_str());
  net::WireResponse metrics = Fetch(fd, "/metricsz", 0);
  std::printf("  /metricsz is %zu bytes of JSON (net.*, proxy, cdn, origin)\n",
              metrics.body.size());

  // 7. Graceful shutdown: drain and close from another thread.
  ::close(fd);
  server.Stop();
  loop.join();
  std::printf("\nserver drained and stopped; next: run the standalone\n"
              "tools (speedkit-edged + speedkit-loadgen) per "
              "docs/OPERATIONS.md\n");
  return 0;
}
