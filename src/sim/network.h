// Network latency and transfer-time model — the substitute for the paper's
// production WAN (see DESIGN.md, substitutions table).
//
// Each link samples its round-trip time from a lognormal distribution
// (heavy right tail, matching measured WAN RTTs) parameterized by its median
// and log-sigma; payload transfer adds bytes/bandwidth. Defaults model a
// client near a CDN edge but far from the origin, which is the regime where
// Speed Kit's edge caching pays off:
//   client <-> edge    median 20 ms
//   client <-> origin  median 100 ms
//   edge   <-> origin  median 80 ms
#ifndef SPEEDKIT_SIM_NETWORK_H_
#define SPEEDKIT_SIM_NETWORK_H_

#include <cstddef>

#include "common/histogram.h"
#include "common/random.h"
#include "common/sim_time.h"
#include "sim/fault_schedule.h"

namespace speedkit::sim {

enum class Link {
  kClientEdge,
  kClientOrigin,
  kEdgeOrigin,
};

// One link's parameters.
struct LinkSpec {
  Duration median_rtt = Duration::Millis(50);
  double log_sigma = 0.25;  // sigma of ln(rtt); 0 disables jitter
  double bandwidth_bytes_per_sec = 4.0e6;  // ~32 Mbit/s
};

struct NetworkConfig {
  LinkSpec client_edge{Duration::Millis(20), 0.25, 8.0e6};
  LinkSpec client_origin{Duration::Millis(100), 0.30, 4.0e6};
  LinkSpec edge_origin{Duration::Millis(80), 0.20, 12.0e6};

  // A network where all latencies collapse to zero; unit tests use it to
  // isolate protocol logic from timing.
  static NetworkConfig Instant();
};

class Network {
 public:
  Network(const NetworkConfig& config, Pcg32 rng);

  // Attaches the stack's fault schedule (not owned; may be nullptr), whose
  // per-link loss probabilities Delivered() draws against. Without one, or
  // with all-zero link losses, every API below draws exactly as before
  // faults existed.
  void SetFaults(const FaultScheduleConfig* faults) { faults_ = faults; }

  // Live observability hook: when set, every RTT this network hands out on
  // a link is recorded (us) into that link's histogram — the
  // `network.rtt_us` metric. Not owned; null disables. Recording draws no
  // randomness and cannot affect simulation results.
  void SetRttHistograms(Histogram* client_edge, Histogram* client_origin,
                        Histogram* edge_origin) {
    rtt_hist_[0] = client_edge;
    rtt_hist_[1] = client_origin;
    rtt_hist_[2] = edge_origin;
  }

  // Samples one round trip on `link`.
  Duration SampleRtt(Link link);

  // Whether a request sent over `link` gets through. False when the
  // link's per-request loss draw fires; the caller (the proxy) turns false
  // into timeout + retry + fallback. Draws the RNG only when the link is
  // actually lossy, so lossless runs keep their latency sample sequence.
  bool Delivered(Link link);

  // Time to move `bytes` across `link` once the connection exists.
  Duration TransferTime(Link link, size_t bytes) const;

  // Full request cost: one RTT plus response transfer.
  Duration RequestTime(Link link, size_t response_bytes);

  const LinkSpec& spec(Link link) const;

 private:
  NetworkConfig config_;
  Pcg32 rng_;
  const FaultScheduleConfig* faults_ = nullptr;
  Histogram* rtt_hist_[3] = {nullptr, nullptr, nullptr};
};

}  // namespace speedkit::sim

#endif  // SPEEDKIT_SIM_NETWORK_H_
