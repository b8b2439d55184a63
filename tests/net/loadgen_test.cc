// net::RunLoadGen against an in-process EdgedServer: the load generator
// sends a workload::Trace over real TCP, refuses a trace it cannot send
// before it connects, and its serve counts equal the simulator's replay of
// the same trace on a stack built by the node's own recipe.
#include "net/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/replay.h"
#include "net/edged_server.h"
#include "workload/catalog.h"

namespace speedkit::net {
namespace {

EdgedConfig SmallNode() {
  EdgedConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.catalog.num_products = 200;
  return config;
}

workload::Trace ZipfTrace(const EdgedConfig& node, size_t clients,
                          uint64_t requests_per_client, SimTime start) {
  workload::Catalog catalog(node.catalog, Pcg32(1));
  return core::SynthesizeZipfTrace(catalog, clients, requests_per_client,
                                   /*hot_products=*/50, /*zipf_s=*/0.95,
                                   /*seed=*/7, start, Duration::Micros(100));
}

// One node on its own loop thread; Stop() (or destruction) joins it.
class Node {
 public:
  explicit Node(const EdgedConfig& config) : server_(config) {
    if (server_.Start()) loop_ = std::thread([this] { server_.Run(); });
  }
  ~Node() { Stop(); }
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  bool running() const { return loop_.joinable(); }
  void Stop() {
    if (!loop_.joinable()) return;
    server_.Stop();
    loop_.join();
  }
  LoadGenConfig LoadGen(int workers) const {
    LoadGenConfig config;
    config.targets.push_back(
        {server_.config().node_name, "127.0.0.1", server_.port()});
    config.workers = workers;
    return config;
  }
  const EdgedServer& server() const { return server_; }

 private:
  EdgedServer server_;
  std::thread loop_;
};

TEST(LoadGenTest, SocketServeCountsEqualTheSimulatorReplayOfTheSameTrace) {
  const EdgedConfig config = SmallNode();  // kInstant flights
  core::SpeedKitStack sim(config.stack);
  PrepareEdgeStack(config, &sim);
  workload::Trace trace = ZipfTrace(config, 2, 150, sim.clock().Now());

  Node node(config);
  ASSERT_TRUE(node.running());
  // One worker: the two clients' requests go out strictly in trace order.
  Result<LoadGenReport> sent = RunLoadGen(node.LoadGen(1), trace);
  node.Stop();
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_EQ(sent->responses, trace.size());
  EXPECT_EQ(sent->transport_errors, 0u);

  core::ReplayResult replay = core::TraceReplayer(&sim).Replay(trace);
  const proxy::ProxyStats& p = replay.proxies;
  ASSERT_EQ(p.requests, trace.size());
  ASSERT_EQ(p.swr_serves + p.offline_serves + p.errors, 0u);
  std::map<std::string, uint64_t> expected = {{"browser", p.browser_hits},
                                              {"edge", p.edge_hits},
                                              {"origin", p.origin_fetches}};
  std::erase_if(expected, [](const auto& tier) { return tier.second == 0; });
  EXPECT_EQ(sent->sources, expected);
  EXPECT_GT(p.browser_hits, 0u);
  EXPECT_GT(p.origin_fetches, 0u);
}

TEST(LoadGenTest, TraceItCannotSendIsRefusedBeforeConnecting) {
  // A bound socket that never listens: a connection attempt is refused,
  // so any send would surface as transport errors in an ok report.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  LoadGenConfig config;
  config.targets.push_back({"edge-0", "127.0.0.1", ntohs(addr.sin_port)});
  config.workers = 2;

  workload::Catalog catalog(SmallNode().catalog, Pcg32(1));
  workload::Trace with_write;
  with_write.AddFetch(SimTime::Origin(), 0, catalog.ProductUrl(0));
  with_write.AddWrite(SimTime::Origin(), catalog.ProductId(0),
                      catalog.InitialFields(0));
  workload::Trace with_bad_url;
  with_bad_url.AddFetch(SimTime::Origin(), 0, catalog.ProductUrl(0));
  with_bad_url.AddFetch(SimTime::Origin(), 1, "not a url");

  for (const workload::Trace* trace : {&with_write, &with_bad_url}) {
    Result<LoadGenReport> sent = RunLoadGen(config, *trace);
    EXPECT_TRUE(sent.status().IsInvalidArgument())
        << sent.status().ToString();
  }
  ::close(fd);
}

TEST(LoadGenTest, EveryFetchIsAnsweredAcrossWorkers) {
  const EdgedConfig config = SmallNode();
  workload::Trace trace = ZipfTrace(config, 8, 50, SimTime::Origin());
  Node node(config);
  ASSERT_TRUE(node.running());
  Result<LoadGenReport> sent = RunLoadGen(node.LoadGen(4), trace);
  node.Stop();
  ASSERT_TRUE(sent.ok()) << sent.status().ToString();
  EXPECT_EQ(sent->responses, trace.size());
  EXPECT_EQ(sent->transport_errors, 0u);
  EXPECT_EQ(node.server().proxy_stats().requests, trace.size());
}

}  // namespace
}  // namespace speedkit::net
