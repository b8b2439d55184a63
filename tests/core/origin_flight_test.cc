// Concurrent-miss semantics at the edge (StackConfig::origin_flight).
// kInstant is the legacy instantaneous-store model; kCoalesce models the
// in-flight window with single-flight collapsing — the second client joins
// the leader's flight and the origin sees ONE request. This is the
// simulator adopting the exact mechanism speedkit_edged runs over real
// sockets.
#include <string>

#include <gtest/gtest.h>

#include "cache/cdn.h"
#include "core/stack.h"
#include "http/url.h"
#include "proxy/client_pool.h"
#include "proxy/client_proxy.h"
#include "workload/catalog.h"

namespace speedkit::core {
namespace {

struct FlightWorld {
  explicit FlightWorld(cache::OriginFlightMode mode) {
    StackConfig config;
    config.seed = 42;
    config.cdn_edges = 1;  // both clients share the one edge
    config.origin_flight = mode;
    stack = std::make_unique<SpeedKitStack>(config);
    workload::CatalogConfig catalog_config;
    catalog_config.num_products = 50;
    workload::Catalog catalog(catalog_config, stack->ForkRng(0xca7a10a));
    catalog.Populate(&stack->store(), stack->clock().Now());
    url = *http::Url::Parse(catalog.ProductUrl(0));
    // Step past the populate transient (cold TTL estimator + sketch churn)
    // so the fetches below behave like steady-state traffic.
    stack->Advance(Duration::Seconds(1));
    pool = stack->MakeClientPool(proxy::ClientPoolConfig{});
    a = pool->MakeClient(stack->DefaultProxyConfig(), 1);
    b = pool->MakeClient(stack->DefaultProxyConfig(), 2);
  }

  std::unique_ptr<SpeedKitStack> stack;
  std::unique_ptr<proxy::ClientPool> pool;
  proxy::ClientProxy* a = nullptr;
  proxy::ClientProxy* b = nullptr;
  http::Url url;
};

TEST(OriginFlightTest, CoalesceCollapsesTheSecondMissIntoTheFlight) {
  FlightWorld w(cache::OriginFlightMode::kCoalesce);

  // A misses cold: it leads the flight and pays the full origin trip.
  proxy::FetchResult first = w.a->Fetch(w.url);
  ASSERT_EQ(first.source, proxy::ServedFrom::kOrigin);
  EXPECT_EQ(w.stack->cdn().flights_started(), 1u);

  // B asks for the same key at the same instant — inside A's window. It
  // joins the flight instead of stampeding: served via the edge, charged
  // the remaining window, and the origin never hears about it.
  proxy::FetchResult second = w.b->Fetch(w.url);
  EXPECT_EQ(second.source, proxy::ServedFrom::kEdgeCache);
  EXPECT_EQ(w.stack->cdn().flight_joins(), 1u);
  EXPECT_EQ(w.stack->origin().stats().requests, 1u);
  // The join waits out the leader's flight: strictly slower than the
  // post-window edge hit measured below.
  w.stack->Advance(Duration::Seconds(2));  // well past the flight window
  proxy::FetchResult later = w.b->Fetch(w.url);
  if (later.source == proxy::ServedFrom::kEdgeCache) {
    EXPECT_GT(second.latency, later.latency);
  }
  EXPECT_EQ(w.stack->cdn().flight_joins(), 1u);  // no window, no join
}

TEST(OriginFlightTest, InstantModeKeepsTheLegacyInstantaneousStore) {
  FlightWorld w(cache::OriginFlightMode::kInstant);

  ASSERT_EQ(w.a->Fetch(w.url).source, proxy::ServedFrom::kOrigin);
  // Legacy semantics: the edge copy exists the moment the leader's fetch
  // completes, with no flight bookkeeping at all.
  EXPECT_EQ(w.b->Fetch(w.url).source, proxy::ServedFrom::kEdgeCache);
  EXPECT_EQ(w.stack->origin().stats().requests, 1u);
  EXPECT_EQ(w.stack->cdn().flights_started(), 0u);
  EXPECT_EQ(w.stack->cdn().flight_joins(), 0u);
}

TEST(OriginFlightTest, CoalesceServesAnEdgeHitOnceTheWindowPasses) {
  // Coalescing only acts DURING a flight window. A request after the
  // leader's window is a plain edge hit, with no join.
  FlightWorld w(cache::OriginFlightMode::kCoalesce);
  ASSERT_EQ(w.a->Fetch(w.url).source, proxy::ServedFrom::kOrigin);
  w.stack->Advance(Duration::Seconds(2));
  EXPECT_EQ(w.b->Fetch(w.url).source, proxy::ServedFrom::kEdgeCache);
  EXPECT_EQ(w.stack->origin().stats().requests, 1u);
  EXPECT_EQ(w.stack->cdn().flight_joins(), 0u);
}

}  // namespace
}  // namespace speedkit::core
