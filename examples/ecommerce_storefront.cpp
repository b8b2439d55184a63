// A day at a simulated e-commerce storefront: 40 shoppers browse a 5000
// product catalog while prices churn underneath them. Prints the
// operations dashboard a Speed Kit deployment would show: per-layer hit
// rates, latency percentiles, coherence health, invalidation pipeline
// stats.
//
//   ./build/examples/ecommerce_storefront
#include <cstdio>

#include "core/stack.h"
#include "core/traffic.h"

using namespace speedkit;

int main() {
  std::printf("e-commerce storefront simulation\n");
  std::printf("================================\n\n");

  core::StackConfig config;
  config.cdn_edges = 4;
  config.coherence.delta = Duration::Seconds(30);
  core::SpeedKitStack stack(config);

  workload::CatalogConfig catalog_config;
  catalog_config.num_products = 5000;
  catalog_config.num_categories = 40;
  workload::Catalog catalog(catalog_config, Pcg32(2026));
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    (void)stack.origin().RegisterQuery(catalog.CategoryQuery(c));
  }
  stack.Advance(Duration::Seconds(5));
  std::printf("catalog: %zu products in %d categories; watching %d listing "
              "queries\n\n",
              catalog.num_products(), catalog.num_categories(),
              catalog.num_categories());

  core::TrafficConfig traffic;
  traffic.num_clients = 40;
  traffic.duration = Duration::Minutes(30);
  traffic.writes_per_sec = 3.0;  // price/stock updates
  traffic.write_skew = 0.9;      // hot products churn most
  core::TrafficSimulation sim(&stack, &catalog, traffic);
  std::printf("running %zu shoppers for %.0f minutes with %.1f writes/s...\n",
              traffic.num_clients, traffic.duration.seconds() / 60,
              traffic.writes_per_sec);
  core::TrafficResult result = sim.Run();

  const proxy::ProxyStats& p = result.proxies;
  double n = static_cast<double>(p.requests);
  std::printf("\n-- delivery --\n");
  std::printf("page views            %llu\n",
              static_cast<unsigned long long>(result.page_views));
  std::printf("requests              %llu\n",
              static_cast<unsigned long long>(p.requests));
  std::printf("browser cache         %5.1f%%\n", 100 * p.browser_hits / n);
  std::printf("CDN edge              %5.1f%%\n", 100 * p.edge_hits / n);
  std::printf("revalidations (304)   %5.1f%%\n",
              100 * p.revalidations_304 / n);
  std::printf("origin                %5.1f%%\n", 100 * p.origin_fetches / n);
  std::printf("API latency           p50 %.1f ms / p90 %.1f ms / p99 %.1f ms\n",
              result.api_latency_us.P50() / 1e3,
              result.api_latency_us.P90() / 1e3,
              result.api_latency_us.P99() / 1e3);
  std::printf("bytes from caches     %.1f MB   over network %.1f MB\n",
              p.bytes_from_browser_cache / 1e6, p.bytes_over_network / 1e6);

  std::printf("\n-- coherence --\n");
  const coherence::StalenessReport& s = stack.staleness().report();
  std::printf("writes applied        %llu\n",
              static_cast<unsigned long long>(result.writes_applied));
  std::printf("tracked reads         %llu\n",
              static_cast<unsigned long long>(s.reads));
  std::printf("stale reads           %llu (%.3f%%)\n",
              static_cast<unsigned long long>(s.stale_reads),
              100 * s.StaleFraction());
  std::printf("max staleness         %.2f s (bound: delta=%.0f s + purge)\n",
              s.max_staleness.seconds(), config.coherence.delta.seconds());
  std::printf("sketch entries        %zu (snapshot %zu bytes)\n",
              stack.sketch()->entries(),
              stack.coherence_protocol()
                  .publication()
                  .Serialized(stack.clock().Now())
                  ->size());
  std::printf("sketch refreshes      %llu (%.1f KB total)\n",
              static_cast<unsigned long long>(p.sketch_refreshes),
              p.sketch_bytes / 1e3);

  std::printf("\n-- invalidation pipeline --\n");
  const invalidation::PipelineStats& ps = stack.pipeline()->stats();
  std::printf("writes seen           %llu\n",
              static_cast<unsigned long long>(ps.writes_seen));
  std::printf("keys invalidated      %llu\n",
              static_cast<unsigned long long>(ps.keys_invalidated));
  std::printf("edge purges           %llu scheduled, %llu effective\n",
              static_cast<unsigned long long>(ps.purges_scheduled),
              static_cast<unsigned long long>(ps.purges_effective));
  std::printf("purge propagation     %s\n",
              stack.pipeline()->propagation_latency_us().Summary().c_str());
  return 0;
}
