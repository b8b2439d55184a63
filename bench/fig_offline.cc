// E11 — Offline mode: availability through origin outages.
//
// Reproduces the field-experience resilience claim: during origin
// downtime, the Speed Kit client keeps serving previously-seen content
// from the device (success rate stays high for returning visitors), while
// the vanilla site hard-fails every request whose cache copy expired.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "core/stack.h"
#include "workload/session.h"

namespace speedkit {
namespace {

struct OutageResult {
  uint64_t requests = 0;
  uint64_t succeeded = 0;
  uint64_t offline_serves = 0;

  double SuccessRate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(succeeded) / static_cast<double>(requests);
  }
};

// Browses for `warm` minutes, then the origin goes down and the same
// clients browse for `outage` minutes.
OutageResult RunOutage(bool speed_kit_on, Duration warm, Duration outage,
                       double revisit_share) {
  core::StackConfig config;
  config.seed = 5;
  // The outage is a fault-schedule window rather than a manual
  // set_available() toggle: browsing starts 5s in (after the population
  // settle below), so the origin is down for [5s+warm, 5s+warm+outage).
  sim::FaultWindow window;
  window.start = SimTime::Origin() + Duration::Seconds(5) + warm;
  window.end = window.start + outage;
  config.faults.origin = {window};
  core::SpeedKitStack stack(config);
  workload::CatalogConfig cconfig;
  cconfig.num_products = 500;
  workload::Catalog catalog(cconfig, Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    stack.origin().RegisterQuery(catalog.CategoryQuery(c));
  }
  stack.Advance(Duration::Seconds(5));

  proxy::ProxyConfig pc = stack.DefaultProxyConfig();
  if (!speed_kit_on) {
    pc.enabled = false;
    pc.use_cdn = false;
    pc.offline_mode = false;
  }
  constexpr int kClients = 10;
  std::vector<std::unique_ptr<proxy::ClientProxy>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(stack.MakeClient(pc, 1 + static_cast<uint64_t>(i)));
  }
  workload::ZipfGenerator popularity(cconfig.num_products, 1.0);
  Pcg32 rng = stack.ForkRng(9);

  // Warm phase: clients browse popular products.
  SimTime warm_end = stack.clock().Now() + warm;
  while (stack.clock().Now() < warm_end) {
    for (auto& client : clients) {
      client->Fetch(catalog.ProductUrl(popularity.Sample(rng)));
    }
    stack.Advance(Duration::Seconds(5));
  }

  // Outage phase: the schedule window armed above has just taken the
  // origin down; a revisit_share of requests go to already-seen pages.
  OutageResult result;
  SimTime outage_end = stack.clock().Now() + outage;
  while (stack.clock().Now() < outage_end) {
    for (auto& client : clients) {
      size_t rank = rng.WithProbability(revisit_share)
                        ? popularity.Sample(rng)  // likely seen before
                        : 400 + rng.NextBounded(100);  // cold tail
      proxy::FetchResult r = client->Fetch(catalog.ProductUrl(rank));
      result.requests++;
      if (r.response.ok()) result.succeeded++;
      if (r.source == proxy::ServedFrom::kOfflineCache) {
        result.offline_serves++;
      }
    }
    stack.Advance(Duration::Seconds(5));
  }
  return result;
}

void OutageSweep(bench::JsonValue* rows) {
  bench::Table table("request success rate during a 10-minute origin outage",
                     "outage",
                     {{"revisit_share", 0, true},
                      {"vanilla_success_rate", 1, true},
                      {"speedkit_success_rate", 1, true},
                      {"offline_serves"},
                      {"outage_requests"}});
  for (double revisit : {0.95, 0.8, 0.5, 0.2}) {
    OutageResult vanilla =
        RunOutage(false, Duration::Minutes(10), Duration::Minutes(10), revisit);
    OutageResult sk =
        RunOutage(true, Duration::Minutes(10), Duration::Minutes(10), revisit);
    rows->Push(table.Add({revisit, vanilla.SuccessRate(), sk.SuccessRate(),
                          sk.offline_serves, sk.requests}));
  }
  bench::Note("the vanilla arm only succeeds while its browser copies are "
              "still within TTL; speed kit serves anything ever seen");
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "offline");
  h.RejectUnreadFlags(bench::SharedFlags::kNone);
  bench::PrintHeader(
      "E11", "Offline mode: availability during origin outages",
      "field-experience resilience claim (service worker keeps the site "
      "usable)");
  bench::JsonValue rows = bench::JsonValue::Array();
  OutageSweep(&rows);
  h.Finish(std::move(rows));
  return 0;
}
