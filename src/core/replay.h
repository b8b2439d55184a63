// Trace replay: drive a recorded workload (workload/trace.h) through a
// stack, creating clients on demand. Replaying one trace against several
// stack variants is the apples-to-apples comparison mode — every variant
// sees byte-identical request and write sequences. The socket load
// generator (net/loadgen.h) sends the same traces over TCP, so one trace
// also compares the simulator with a live edged node (E17).
#ifndef SPEEDKIT_CORE_REPLAY_H_
#define SPEEDKIT_CORE_REPLAY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/histogram.h"
#include "core/stack.h"
#include "proxy/client_pool.h"
#include "proxy/client_proxy.h"
#include "workload/catalog.h"
#include "workload/trace.h"

namespace speedkit::core {

struct ReplayResult {
  uint64_t fetches = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  Histogram latency_us;
  proxy::ProxyStats proxies;  // summed over replayed clients

  // For determinism comparisons: a cheap structural fingerprint.
  uint64_t Fingerprint() const;
};

class TraceReplayer {
 public:
  // Clients run the stack's variant default proxy config, pooled like a
  // live edged node's (proxy::ClientPool).
  explicit TraceReplayer(SpeedKitStack* stack);

  // Schedules every trace event on the stack's queue and runs to the end.
  // Reads are staleness-tracked when the response carries a version.
  ReplayResult Replay(const workload::Trace& trace);

 private:
  proxy::ClientProxy& ClientFor(uint64_t client_id);

  SpeedKitStack* stack_;
  proxy::ProxyConfig proxy_config_;
  std::unique_ptr<proxy::ClientPool> pool_;
  std::unordered_map<uint64_t, proxy::ClientProxy*> clients_;
};

// Synthesizes a session-shaped trace from the catalog (the "record" side
// of record/replay when no production log is available).
workload::Trace SynthesizeTrace(const workload::Catalog& catalog,
                                size_t num_clients, Duration duration,
                                double writes_per_sec, uint64_t seed);

// The socket load generator's product stream: `requests_per_client`
// fetches for each of clients 0..num_clients-1, each a Zipf(zipf_s) draw
// over the catalog's first `hot_products` ranks (0 = all) from client c's
// own fork of Pcg32(seed). Clients take turns round-robin, one fetch every
// `pace` from `start` on.
workload::Trace SynthesizeZipfTrace(const workload::Catalog& catalog,
                                    size_t num_clients,
                                    uint64_t requests_per_client,
                                    size_t hot_products, double zipf_s,
                                    uint64_t seed, SimTime start,
                                    Duration pace);

}  // namespace speedkit::core

#endif  // SPEEDKIT_CORE_REPLAY_H_
