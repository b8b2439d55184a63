// Every exit of the proxy's network path, pinned on one seeded stack with
// the default NetworkConfig. Each latency below is a sum of lognormal RTT
// draws from the network's one RNG stream, so a pinned latency pins the
// order of the draws as well as the legs charged. Each step pins the
// served tier, status, latency, `revalidated`, the trace's span names in
// order, and what the request moved: the client's ProxyStats, its edge's
// HttpCacheStats and the CDN's flight counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/stack.h"
#include "proxy/client_proxy.h"
#include "sim/fault_schedule.h"

namespace speedkit::proxy {
namespace {

constexpr char kRecordUrl[] = "https://shop.example.com/api/records/p1";
// A second record: a request for it installs a client's sketch snapshot
// without touching p1's copies.
constexpr char kOtherUrl[] = "https://shop.example.com/api/records/p2";

class EdgePathTest : public ::testing::Test {
 protected:
  // Fixed 60 s TTLs (so an SWR window of 30 s), single-flight edges and
  // tracing on. The network keeps its default, jittered links.
  static core::StackConfig Config() {
    core::StackConfig config;
    config.seed = 7;
    config.ttl_mode = core::TtlMode::kFixed;
    config.origin_flight = cache::OriginFlightMode::kCoalesce;
    config.obs.tracing = true;
    return config;
  }

  EdgePathTest() : stack_(Config()) {
    stack_.store().Put("p1", {{"price", 10.0}}, stack_.clock().Now());
    stack_.store().Put("p2", {{"price", 20.0}}, stack_.clock().Now());
    stack_.Advance(Duration::Seconds(1));
    stack_.network().SetFaults(&faults_);
  }

  // A new client on the edge that client 1 routes to.
  ClientProxy& NewClient() {
    while (stack_.cdn().RouteFor(next_id_) != stack_.cdn().RouteFor(1)) {
      ++next_id_;
    }
    clients_.push_back(stack_.MakeClient(next_id_++));
    return *clients_.back();
  }

  int Edge() { return stack_.cdn().RouteFor(1); }

  void Advance(double seconds) {
    stack_.Advance(Duration::Seconds(seconds));
  }

  // A write to p1 that reaches the origin, the sketch and every edge.
  void WriteP1() {
    stack_.store().Update("p1", {{"price", 11.0}}, stack_.clock().Now());
  }

  // One fetch, described as
  //   <tier> <status> <latency>us reval=<0|1> [<span names>]
  //   proxy{<counter deltas>} edge{<counter deltas>} flights+N joins+N
  // where only the counters that moved are listed.
  std::string Step(ClientProxy& client, const char* url = kRecordUrl) {
    const ProxyStats before = client.stats();
    cache::HttpCache& edge = stack_.cdn().edge(Edge());
    const cache::HttpCacheStats edge_before = edge.stats();
    const uint64_t flights = stack_.cdn().flights_started();
    const uint64_t joins = stack_.cdn().flight_joins();

    FetchResult r = client.Fetch(url);

    const ProxyStats& after = client.stats();
    EXPECT_EQ(after.ServedTotal(), after.requests);
    std::string out(ServedFromName(r.source));
    out += StrFormat(" %d %lldus reval=%d [", r.response.status_code,
                     static_cast<long long>(r.latency.micros()),
                     r.revalidated ? 1 : 0);
    const obs::RequestTrace& trace = stack_.trace_sink()->traces().back();
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      if (i > 0) out += ' ';
      out += trace.spans[i].name;
    }
    out += "] proxy{";
    out += ProxyDelta(before, after);
    out += "} edge{";
    out += EdgeDelta(edge_before, edge.stats());
    out += StrFormat("} flights+%llu joins+%llu",
                     static_cast<unsigned long long>(
                         stack_.cdn().flights_started() - flights),
                     static_cast<unsigned long long>(
                         stack_.cdn().flight_joins() - joins));
    return out;
  }

  static void AddDelta(std::string* out, const char* name, uint64_t before,
                       uint64_t after) {
    if (after == before) return;
    if (!out->empty()) *out += ' ';
    *out += StrFormat("%s+%llu", name,
                      static_cast<unsigned long long>(after - before));
  }

  static std::string ProxyDelta(const ProxyStats& a, const ProxyStats& b) {
    std::string out;
    AddDelta(&out, "requests", a.requests, b.requests);
    AddDelta(&out, "browser_hits", a.browser_hits, b.browser_hits);
    AddDelta(&out, "edge_hits", a.edge_hits, b.edge_hits);
    AddDelta(&out, "origin_fetches", a.origin_fetches, b.origin_fetches);
    AddDelta(&out, "revalidations_304", a.revalidations_304,
             b.revalidations_304);
    AddDelta(&out, "revalidations_200", a.revalidations_200,
             b.revalidations_200);
    AddDelta(&out, "sketch_bypasses", a.sketch_bypasses, b.sketch_bypasses);
    AddDelta(&out, "offline_serves", a.offline_serves, b.offline_serves);
    AddDelta(&out, "errors", a.errors, b.errors);
    AddDelta(&out, "sketch_refreshes", a.sketch_refreshes,
             b.sketch_refreshes);
    AddDelta(&out, "sketch_bytes", a.sketch_bytes, b.sketch_bytes);
    AddDelta(&out, "swr_serves", a.swr_serves, b.swr_serves);
    AddDelta(&out, "bytes_from_browser_cache", a.bytes_from_browser_cache,
             b.bytes_from_browser_cache);
    AddDelta(&out, "bytes_over_network", a.bytes_over_network,
             b.bytes_over_network);
    AddDelta(&out, "timeouts", a.timeouts, b.timeouts);
    AddDelta(&out, "retries", a.retries, b.retries);
    AddDelta(&out, "fallback_serves", a.fallback_serves, b.fallback_serves);
    AddDelta(&out, "background_revalidations", a.background_revalidations,
             b.background_revalidations);
    AddDelta(&out, "background_304s", a.background_304s, b.background_304s);
    AddDelta(&out, "background_200s", a.background_200s, b.background_200s);
    AddDelta(&out, "background_errors", a.background_errors,
             b.background_errors);
    AddDelta(&out, "background_bytes", a.background_bytes,
             b.background_bytes);
    AddDelta(&out, "txn_validations", a.txn_validations, b.txn_validations);
    AddDelta(&out, "txn_validation_bytes", a.txn_validation_bytes,
             b.txn_validation_bytes);
    return out;
  }

  static std::string EdgeDelta(const cache::HttpCacheStats& a,
                               const cache::HttpCacheStats& b) {
    std::string out;
    AddDelta(&out, "fresh_hits", a.fresh_hits, b.fresh_hits);
    AddDelta(&out, "stale_hits", a.stale_hits, b.stale_hits);
    AddDelta(&out, "misses", a.misses, b.misses);
    AddDelta(&out, "stores", a.stores, b.stores);
    AddDelta(&out, "store_rejects", a.store_rejects, b.store_rejects);
    AddDelta(&out, "refreshes", a.refreshes, b.refreshes);
    AddDelta(&out, "purges", a.purges, b.purges);
    return out;
  }

  core::SpeedKitStack stack_;
  sim::FaultScheduleConfig faults_;
  std::vector<std::unique_ptr<ClientProxy>> clients_;
  uint64_t next_id_ = 1;
};

TEST_F(EdgePathTest, EdgeHitEdgeMinted304AndFlightJoin) {
  ClientProxy& a = NewClient();
  ClientProxy& b = NewClient();
  ClientProxy& c = NewClient();
  ClientProxy& d = NewClient();
  Step(a);  // a miss leads a flight
  // The same instant: b joins the flight.
  EXPECT_EQ(Step(b),
      "edge 200 96916us reval=0 [proxy.overhead sketch.refresh "
      "edge.flight_join edge.hit net.client_edge] "
      "proxy{requests+1 edge_hits+1 sketch_refreshes+1 sketch_bytes+16 "
      "bytes_over_network+125} "
      "edge{fresh_hits+1} flights+0 joins+1");
  Advance(1);
  EXPECT_EQ(Step(c),
      "edge 200 21901us reval=0 [proxy.overhead sketch.refresh edge.hit "
      "net.client_edge] "
      "proxy{requests+1 edge_hits+1 sketch_refreshes+1 sketch_bytes+16 "
      "bytes_over_network+125} "
      "edge{fresh_hits+1} flights+0 joins+0");
  // Past the TTL and the SWR window. d, holding no copy, revalidates the
  // edge's stale copy; then a's own stale copy meets a fresh edge copy
  // with its ETag and gets a 304 minted at the edge.
  Advance(100);
  Step(d);
  EXPECT_EQ(Step(a),
      "edge 200 24565us reval=1 [proxy.overhead sketch.refresh edge.hit_304 "
      "net.client_edge] "
      "proxy{requests+1 edge_hits+1 revalidations_304+1 sketch_refreshes+1 "
      "sketch_bytes+16 bytes_from_browser_cache+34 bytes_over_network+256} "
      "edge{fresh_hits+1} flights+0 joins+0");
}

TEST_F(EdgePathTest, StaleIfErrorAndStaleCopyWithOriginDown) {
  ClientProxy& a = NewClient();
  ClientProxy& b = NewClient();
  Step(a);
  Step(b, kOtherUrl);  // b installs a sketch snapshot, holds no p1
  Advance(100);        // the edge's copy of p1 is stale

  // The edge->origin link is lost: the edge serves its stale copy.
  faults_.edge_origin.loss_probability = 1.0;
  EXPECT_EQ(Step(b),
      "edge 200 6801961us reval=0 [proxy.overhead sketch.refresh timeout.wait "
      "retry.backoff timeout.wait retry.backoff timeout.wait "
      "edge.stale_if_error net.client_edge] "
      "proxy{requests+1 edge_hits+1 sketch_refreshes+1 sketch_bytes+16 "
      "bytes_over_network+125 timeouts+3 retries+2 fallback_serves+1} "
      "edge{stale_hits+1} flights+0 joins+0");
  faults_.edge_origin.loss_probability = 0.0;

  // The origin is down: the revalidation gets a 503, and a falls back to
  // its own expired copy.
  stack_.origin().set_available(false);
  EXPECT_EQ(Step(a),
      "offline 200 78868us reval=0 [proxy.overhead net.client_edge "
      "net.edge_origin offline.serve] "
      "proxy{requests+1 offline_serves+1 bytes_from_browser_cache+34} "
      "edge{stale_hits+1} flights+0 joins+0");
}

TEST_F(EdgePathTest, StaleCopyRevalidatedTo304) {
  ClientProxy& a = NewClient();
  ClientProxy& b = NewClient();
  Step(a);
  Step(b, kOtherUrl);
  Advance(100);
  // a's validator matches the edge's: the origin's 304 is forwarded.
  EXPECT_EQ(Step(a),
      "edge 200 90133us reval=1 [proxy.overhead sketch.refresh edge.revalidate "
      "net.edge_origin origin.render net.client_edge] "
      "proxy{requests+1 edge_hits+1 revalidations_304+1 sketch_refreshes+1 "
      "sketch_bytes+16 bytes_from_browser_cache+34 bytes_over_network+256} "
      "edge{fresh_hits+1 stale_hits+1 refreshes+1} flights+0 joins+0");
  Advance(100);
  // b holds no copy: it is served the refreshed edge copy in full.
  EXPECT_EQ(Step(b),
      "edge 200 111305us reval=0 [proxy.overhead sketch.refresh "
      "edge.revalidate net.edge_origin origin.render net.client_edge] "
      "proxy{requests+1 edge_hits+1 sketch_refreshes+1 sketch_bytes+16 "
      "bytes_over_network+125} "
      "edge{fresh_hits+1 stale_hits+1 refreshes+1} flights+0 joins+0");
}

TEST_F(EdgePathTest, StaleCopyAnsweredWith200OpensNoFlight) {
  ClientProxy& a = NewClient();
  ClientProxy& b = NewClient();
  Step(a);
  Step(b, kOtherUrl);
  // The write's purge finds the edge down and is dropped, so the edge
  // keeps the old version.
  stack_.cdn().SetEdgeDown(Edge(), true);
  WriteP1();
  Advance(10);
  stack_.cdn().SetEdgeDown(Edge(), false);
  // Past the TTL, and past the sketch's horizon for p1: the edge's old
  // copy is stale and no longer flagged.
  Advance(100);
  EXPECT_EQ(Step(b),
      "origin 200 97605us reval=0 [proxy.overhead sketch.refresh "
      "edge.revalidate net.edge_origin origin.render net.client_edge] "
      "proxy{requests+1 origin_fetches+1 sketch_refreshes+1 sketch_bytes+16 "
      "bytes_over_network+125} "
      "edge{stale_hits+1 stores+1} flights+0 joins+0");
}

TEST_F(EdgePathTest, MissExits) {
  ClientProxy& a = NewClient();
  ClientProxy& b = NewClient();
  ClientProxy& c = NewClient();
  Step(b, kOtherUrl);  // b's snapshot: with the origin down it keeps it

  faults_.edge_origin.loss_probability = 1.0;
  EXPECT_EQ(Step(a),
      "error 503 6899078us reval=0 [proxy.overhead sketch.refresh timeout.wait "
      "retry.backoff timeout.wait retry.backoff timeout.wait net.client_edge] "
      "proxy{requests+1 errors+1 sketch_refreshes+1 sketch_bytes+16 timeouts+3 "
      "retries+2} "
      "edge{misses+1} flights+0 joins+0");
  faults_.edge_origin.loss_probability = 0.0;

  stack_.origin().set_available(false);
  EXPECT_EQ(Step(b),
      "error 503 103480us reval=0 [proxy.overhead net.client_edge "
      "net.edge_origin] "
      "proxy{requests+1 errors+1} "
      "edge{misses+1} flights+0 joins+0");
  stack_.origin().set_available(true);

  EXPECT_EQ(Step(c),
      "origin 200 86893us reval=0 [proxy.overhead sketch.refresh edge.miss "
      "net.edge_origin origin.render net.client_edge] "
      "proxy{requests+1 origin_fetches+1 sketch_refreshes+1 sketch_bytes+16 "
      "bytes_over_network+125} "
      "edge{misses+1 stores+1} flights+1 joins+0");
}

TEST_F(EdgePathTest, BypassExits) {
  ClientProxy& a = NewClient();
  ClientProxy& b = NewClient();
  ClientProxy& c = NewClient();
  Step(a);
  Step(b);
  Step(c);
  WriteP1();
  Advance(31);  // past Δ: each client's next refresh flags p1
  Step(b, kOtherUrl);

  faults_.edge_origin.loss_probability = 1.0;
  EXPECT_EQ(Step(a),
      "offline 200 6915061us reval=0 [proxy.overhead sketch.refresh "
      "timeout.wait retry.backoff timeout.wait retry.backoff timeout.wait "
      "net.client_edge offline.serve] "
      "proxy{requests+1 sketch_bypasses+1 offline_serves+1 sketch_refreshes+1 "
      "sketch_bytes+16 bytes_from_browser_cache+34 timeouts+3 retries+2} "
      "edge{} flights+0 joins+0");
  faults_.edge_origin.loss_probability = 0.0;

  stack_.origin().set_available(false);
  EXPECT_EQ(Step(b),
      "offline 200 102554us reval=0 [proxy.overhead net.client_edge "
      "net.edge_origin offline.serve] "
      "proxy{requests+1 sketch_bypasses+1 offline_serves+1 "
      "bytes_from_browser_cache+34} "
      "edge{} flights+0 joins+0");
  stack_.origin().set_available(true);

  // The new version, then a 304 for it: p1 stays flagged until its
  // horizon, so both bypass the edge.
  EXPECT_EQ(Step(c),
      "origin 200 157211us reval=0 [proxy.overhead sketch.refresh edge.bypass "
      "net.edge_origin origin.render net.client_edge] "
      "proxy{requests+1 origin_fetches+1 revalidations_200+1 sketch_bypasses+1 "
      "sketch_refreshes+1 sketch_bytes+16 bytes_over_network+125} "
      "edge{stores+1} flights+0 joins+0");
  EXPECT_EQ(Step(c),
      "origin 200 95064us reval=1 [proxy.overhead edge.bypass net.edge_origin "
      "origin.render net.client_edge] "
      "proxy{requests+1 origin_fetches+1 revalidations_304+1 sketch_bypasses+1 "
      "bytes_from_browser_cache+34 bytes_over_network+256} "
      "edge{refreshes+1} flights+0 joins+0");
}

TEST_F(EdgePathTest, RerouteAroundADownEdge) {
  ClientProxy& a = NewClient();
  stack_.cdn().SetEdgeDown(Edge(), true);
  EXPECT_EQ(Step(a),
      "origin 200 77257us reval=0 [proxy.overhead sketch.refresh "
      "edge.down_reject net.client_origin origin.render] "
      "proxy{requests+1 origin_fetches+1 sketch_refreshes+1 sketch_bytes+16 "
      "bytes_over_network+125 fallback_serves+1} "
      "edge{} flights+0 joins+0");
}

TEST_F(EdgePathTest, SwrRevalidationReroutedCountsOneFallback) {
  ClientProxy& a = NewClient();
  Step(a);
  Advance(70);  // past the TTL, inside the SWR window
  stack_.cdn().SetEdgeDown(Edge(), true);
  EXPECT_EQ(Step(a),
      "browser 200 19079us reval=0 [proxy.overhead sketch.refresh "
      "browser.swr_serve] "
      "proxy{requests+1 sketch_refreshes+1 sketch_bytes+16 swr_serves+1 "
      "bytes_from_browser_cache+34 fallback_serves+1 "
      "background_revalidations+1 background_304s+1 background_bytes+256} "
      "edge{} flights+0 joins+0");
}

}  // namespace
}  // namespace speedkit::proxy
