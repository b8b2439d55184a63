// Per-layer probes: each layer's public functions, called on the final warm
// state of a run with the workload's own keys and timed in batches.
//
// A probe reports the median over kProbeRounds rounds of the mean cost per
// call in a round, in ns, with the total number of calls as its samples.
// Probes run after every model outcome has been recorded, so whatever
// state they touch (origin stats, probe keys in the sketch) can no longer
// change a result.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/stack.h"
#include "proxy/client_proxy.h"
#include "report.h"
#include "workload/catalog.h"

namespace perfbench {

inline constexpr size_t kProbeKeys = 512;
inline constexpr int kProbeRounds = 7;

struct ProbeTargets {
  // (client, URL) pairs the client fetched most recently: warm browser
  // cache entries, and through the client's edge, warm edge entries.
  std::vector<std::pair<speedkit::proxy::ClientProxy*, std::string>> warm;
  std::vector<std::string> record_urls;  // product pages
  std::vector<std::string> query_urls;   // category listings
};

// cache.browser_lookup_ns, cache.edge_lookup_ns, cache.freeze_ns,
// cache.thaw_ns, cache.frozen_bytes_per_client.
void ProbeCaches(speedkit::core::SpeedKitStack& stack,
                 const ProbeTargets& targets, Report* report);

// origin.query_200_ns, origin.query_304_ns, origin.record_200_ns.
void ProbeOrigin(speedkit::core::SpeedKitStack& stack,
                 const ProbeTargets& targets, Report* report);

// sketch.publish_ns (Serialized right after one fresh invalidation) and
// sketch.install_ns (InstallInto a client sketch).
void ProbeSketch(speedkit::core::SpeedKitStack& stack, Report* report);

// http.url_parse_ns over `urls`.
void ProbeUrlParse(const std::vector<std::string>& urls, Report* report);

// net.parse_ns: net::ParseRequest over the GET requests a socket client
// sends for `urls`.
void ProbeWireParse(const std::vector<std::string>& urls, Report* report);

// Stand-ins for the driver's spans on workloads whose requests run inside
// another process's loop (edge-socket):
// proxy.fetch_ns.{browser,edge,origin}.{p50,p99} from fresh probe clients
// fetching `cold_urls` (never requested, so origin serves) and then
// `warm_urls` twice (edge, then browser), split by FetchResult.source.
void ProbeFetchTiers(speedkit::core::SpeedKitStack& stack,
                     const std::vector<std::string>& cold_urls,
                     const std::vector<std::string>& warm_urls,
                     Report* report);

// storage.update_ns.{p50,p99}, invalidation.keys_per_write,
// invalidation.purges_per_write and sim.dispatch_ns_per_event from price
// writes to the catalog's products and the purge events they schedule.
void ProbeWrites(speedkit::core::SpeedKitStack& stack,
                 const speedkit::workload::Catalog& catalog, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
