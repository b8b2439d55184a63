// Deterministic fault injection for the simulated infrastructure.
//
// A FaultScheduleConfig is plain data describing the four faults the
// resilience experiments (E11, E14) inject: per-link request loss, origin
// outage windows, per-edge outage windows, and purge-delivery loss in the
// invalidation pipeline. Every probabilistic decision (a loss draw) is
// taken by the component that owns the relevant seeded PRNG stream, so
// faulty runs stay bit-reproducible, and a probability of 0 takes no draw,
// so an all-zero schedule is byte-for-byte identical to no schedule.
//
// SpeedKitStack turns each outage window into a pair of clock events (down
// at `start`, back up at `end`); StackConfig::Validate rejects a window
// that does not run forward, two overlapping windows on one node, and
// windows for an edge the CDN does not have.
#ifndef SPEEDKIT_SIM_FAULT_SCHEDULE_H_
#define SPEEDKIT_SIM_FAULT_SCHEDULE_H_

#include <vector>

#include "common/sim_time.h"

namespace speedkit::sim {

// One outage, [start, end): the node is unreachable inside it.
struct FaultWindow {
  SimTime start = SimTime::Origin();
  SimTime end = SimTime::Origin();
};

// Faults on one WAN link.
struct LinkFaults {
  // Per-request probability that the request never gets through (times
  // out after proxy-side retries). 0 = lossless, and guarantees no RNG
  // draw, so a lossless schedule does not perturb latency sampling.
  double loss_probability = 0.0;
};

struct FaultScheduleConfig {
  LinkFaults client_edge;
  LinkFaults client_origin;
  LinkFaults edge_origin;

  // Origin-server outage windows (the E11/E14 "origin down" scenario).
  std::vector<FaultWindow> origin;

  // Per-edge outage windows; index = physical edge number.
  // StackConfig::Validate rejects a list longer than the CDN's edge count.
  std::vector<std::vector<FaultWindow>> edges;

  // Each scheduled per-edge purge delivery is independently dropped with
  // this probability. 0 means no RNG draw.
  double purge_loss_probability = 0.0;
};

}  // namespace speedkit::sim

#endif  // SPEEDKIT_SIM_FAULT_SCHEDULE_H_
