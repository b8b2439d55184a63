// Session-driven traffic simulation: a population of clients browsing the
// catalog while a Poisson write process mutates it underneath them.
//
// This is the workhorse behind E2 (staleness vs. Δ), E3 (TTL policies),
// E4 (hits per layer) and E9 (baselines): each experiment builds a stack
// variant, runs identical traffic through it (same seeds), and reads the
// aggregated result. One page view issues one primary API fetch (record or
// query result); full page loads with assets are modelled separately by
// PageLoader.
#ifndef SPEEDKIT_CORE_TRAFFIC_H_
#define SPEEDKIT_CORE_TRAFFIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/time_series.h"
#include "core/stack.h"
#include "proxy/client_proxy.h"
#include "workload/catalog.h"
#include "workload/session.h"
#include "workload/write_process.h"

namespace speedkit::core {

struct TrafficConfig {
  size_t num_clients = 50;
  Duration duration = Duration::Minutes(30);
  workload::SessionConfig session;
  double writes_per_sec = 2.0;
  double write_skew = 0.8;
  uint64_t seed_salt = 0;
  // Overrides the stack's variant-derived proxy settings when set.
  const proxy::ProxyConfig* proxy_config = nullptr;
  // Fleet memory policy: arena pool + idle-cache spill (kAuto turns spill
  // on only for large fleets, so small experiments are byte-for-byte
  // unaffected). Spill is behavior-neutral either way — freeze/thaw round
  // trips are lossless and draw no randomness.
  proxy::ClientPoolConfig pool;
};

struct TrafficResult {
  // Latency of primary API fetches (the paper's dynamic content).
  Histogram api_latency_us;
  // Latency of every fetch including shells.
  Histogram all_latency_us;
  uint64_t page_views = 0;
  uint64_t writes_applied = 0;
  proxy::ProxyStats proxies;  // summed over all clients

  // Per-minute timelines: warm-up dynamics of the cache hierarchy.
  TimeSeries hit_ratio_timeline{Duration::Minutes(1)};   // 1 = any cache hit
  TimeSeries latency_ms_timeline{Duration::Minutes(1)};  // per-fetch ms
  TimeSeries stale_timeline{Duration::Minutes(1)};       // 1 = stale read

  double BrowserHitRatio() const;
  double EdgeHitRatio() const;
  double OriginRatio() const;

  // Accumulates another run's results into this one (histograms merged,
  // counters summed, timelines added bucket-wise). Used by the multi-seed
  // experiment harness; merge order must be fixed for determinism.
  void Merge(const TrafficResult& other);
};

class TrafficSimulation {
 public:
  TrafficSimulation(SpeedKitStack* stack, const workload::Catalog* catalog,
                    const TrafficConfig& config);

  // Runs the configured duration; returns aggregated results. Staleness
  // numbers live in stack->staleness().
  TrafficResult Run();

  // Spill accounting for the run (zeros when spill never engaged).
  proxy::ClientPoolSpillStats SpillStats() const { return pool_->SpillStats(); }

 private:
  void ScheduleSession(size_t client_index, SimTime at);
  void ScheduleNextWrite(SimTime from);
  void ScheduleSpillSweep(SimTime at);
  void ExecutePageView(size_t client_index, const workload::PageView& view);

  SpeedKitStack* stack_;
  const workload::Catalog* catalog_;
  TrafficConfig config_;
  SimTime end_;

  // One immutable popularity CDF for the whole fleet (O(catalog) doubles
  // once, not per client).
  workload::ZipfGenerator popularity_;
  // Clients live in the pool's arena and record into its shared stats
  // sink; clients_ holds the owned subset in creation order, indexed in
  // lockstep with session_gens_.
  std::unique_ptr<proxy::ClientPool> pool_;
  std::vector<proxy::ClientProxy*> clients_;
  std::vector<workload::SessionGenerator> session_gens_;
  workload::WriteProcess writes_;
  Pcg32 rng_;
  TrafficResult result_;
};

}  // namespace speedkit::core

#endif  // SPEEDKIT_CORE_TRAFFIC_H_
