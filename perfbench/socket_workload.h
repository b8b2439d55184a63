// edge-socket: an in-process speedkit_edged node (net::EdgedServer, one
// epoll loop, OriginFlightMode::kCoalesce) driven over loopback TCP by an
// open-loop generator in the same process.
//
// The generator sends each request at its scheduled due time whether or
// not earlier ones were answered (HTTP/1.1 pipelining on keep-alive
// connections), times every request from its due time, and records how
// late it sent. The loop thread plus the generator threads number at most
// the available CPUs (one generator at least), with one connection per
// generator thread; every connection carries many X-SpeedKit-Client
// identities.
//
// Phase 0 runs at the reference rate and gives the edge latencies and the
// model outcomes. Then a ladder of rising rates runs until one misses the
// p99 latency limit; the rate at which p99 crosses the limit, interpolated
// between the last passing and the first failing step, is the highest
// rate the node sustains under the limit.
#ifndef PERFBENCH_SOCKET_WORKLOAD_H_
#define PERFBENCH_SOCKET_WORKLOAD_H_

#include "report.h"
#include "schedule.h"
#include "sim_workload.h"

namespace perfbench {

void RunSocketWorkload(const SocketSpec& spec, const RunOptions& options,
                       Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SOCKET_WORKLOAD_H_
