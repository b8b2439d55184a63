// speedkit_loadgen — closed-loop TCP load generator for the edged tier.
//
// Sends the fetch events of a workload::Trace, the one request-stream
// format the simulator's TraceReplayer also replays. The trace's clients
// are split over N workers by client id (client c runs on worker
// c % workers); each worker is a closed loop over its own keep-alive
// connections: route the key through the SAME consistent-hash ring the
// edge tier runs (client-side routing, like a memcached client), send one
// HTTP/1.1 GET carrying the event's client id as X-SpeedKit-Client, block
// for the response, record wall latency and the X-SpeedKit-* annotations,
// repeat. Each client id is one browser cache + sketch on the edge side,
// so hit patterns match a fleet of real devices.
//
// Each client's requests go out in trace order; timestamps are ignored
// (the loop runs as fast as the node answers), and the interleaving across
// workers is real concurrency and intentionally not deterministic — that
// is the thing the socketed mode adds over the simulator.
#ifndef SPEEDKIT_NET_LOADGEN_H_
#define SPEEDKIT_NET_LOADGEN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "workload/trace.h"

namespace speedkit::net {

struct LoadGenTarget {
  std::string node_name;  // ring identity — must match the edged instance
  std::string host;       // TCP address, e.g. "127.0.0.1"
  uint16_t port = 0;
};

struct LoadGenConfig {
  std::vector<LoadGenTarget> targets;  // the edge ring, one entry per node
  int ring_replicas = 200;             // must match the edged instances
  int workers = 4;                     // closed-loop threads
};

struct LoadGenReport {
  uint64_t requests = 0;
  uint64_t responses = 0;
  uint64_t errors_4xx = 0;
  uint64_t errors_5xx = 0;
  uint64_t transport_errors = 0;  // connect/send/recv/parse failures
  // Serve-tier split from X-SpeedKit-Source (browser, edge, origin, ...).
  // Ordered map for deterministic report output.
  std::map<std::string, uint64_t> sources;
  Histogram wall_latency_us;  // measured around each request/response
  Histogram predicted_us;     // X-SpeedKit-Latency-Us (the sim's model)
  double wall_seconds = 0;    // whole-run wall time

  // Cache hit rate as the experiments define it: served without an origin
  // round trip.
  double HitRate() const;
  // Responses per wall-clock second over the whole run.
  double Throughput() const;
};

// Sends every fetch of `trace` and blocks until every worker finishes.
// Before sending anything, returns InvalidArgument for a trace holding a
// write event or a URL that does not parse, and for a config without
// targets or workers.
Result<LoadGenReport> RunLoadGen(const LoadGenConfig& config,
                                 const workload::Trace& trace);

}  // namespace speedkit::net

#endif  // SPEEDKIT_NET_LOADGEN_H_
