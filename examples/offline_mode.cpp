// Offline mode: the origin goes down mid-session; the Speed Kit service
// worker keeps previously-visited pages usable from the device while a
// vanilla browser hard-fails.
//
//   ./build/examples/offline_mode
#include <cstdio>

#include "core/stack.h"
#include "workload/catalog.h"

using namespace speedkit;

namespace {

void Try(const char* who, proxy::ClientProxy& client, const std::string& url) {
  proxy::FetchResult r = client.Fetch(url);
  if (r.response.ok()) {
    std::printf("  %-8s %-46s OK   (%s, %.1f ms)\n", who, url.c_str(),
                std::string(proxy::ServedFromName(r.source)).c_str(),
                r.latency.millis());
  } else {
    std::printf("  %-8s %-46s FAIL (HTTP %d)\n", who, url.c_str(),
                r.response.status_code);
  }
}

}  // namespace

int main() {
  std::printf("offline mode demo\n=================\n\n");
  core::StackConfig config;
  core::SpeedKitStack stack(config);
  workload::CatalogConfig catalog_config;
  catalog_config.num_products = 100;
  workload::Catalog catalog(catalog_config, Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  stack.Advance(Duration::Seconds(5));

  auto speedkit_client = stack.MakeClient(1);
  proxy::ProxyConfig vanilla_config = stack.DefaultProxyConfig();
  vanilla_config.enabled = false;
  vanilla_config.use_cdn = false;
  vanilla_config.offline_mode = false;
  auto vanilla_client = stack.MakeClient(vanilla_config, 2);

  std::printf("both browsers visit three products while everything is up:\n");
  for (size_t rank : {3u, 7u, 11u}) {
    Try("speedkit", *speedkit_client, catalog.ProductUrl(rank));
    Try("vanilla", *vanilla_client, catalog.ProductUrl(rank));
  }

  std::printf("\n...90 minutes pass (all TTLs expire), then the origin goes "
              "DOWN...\n\n");
  stack.Advance(Duration::Minutes(90));
  stack.origin().set_available(false);

  std::printf("revisiting the same products during the outage:\n");
  for (size_t rank : {3u, 7u, 11u}) {
    Try("speedkit", *speedkit_client, catalog.ProductUrl(rank));
    Try("vanilla", *vanilla_client, catalog.ProductUrl(rank));
  }
  std::printf("\nand a page neither browser has seen:\n");
  Try("speedkit", *speedkit_client, catalog.ProductUrl(55));

  std::printf("\norigin comes back; normal operation resumes:\n");
  stack.origin().set_available(true);
  stack.Advance(Duration::Seconds(31));
  Try("speedkit", *speedkit_client, catalog.ProductUrl(3));

  std::printf("\nspeedkit client: %llu offline serves, %llu errors | "
              "vanilla client: %llu errors\n",
              static_cast<unsigned long long>(
                  speedkit_client->stats().offline_serves),
              static_cast<unsigned long long>(speedkit_client->stats().errors),
              static_cast<unsigned long long>(vanilla_client->stats().errors));
  return 0;
}
