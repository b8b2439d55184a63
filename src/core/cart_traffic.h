// Multi-key shopping-cart traffic: the workload behind E18 (coherence
// modes head-to-head).
//
// Each client periodically runs a read-only checkout transaction over K
// distinct catalog products (cart lines + their current prices) while the
// usual Poisson write process mutates the catalog underneath. Every
// committed transaction is audited against the stack's version authority:
// did the K reads observe a consistent snapshot — i.e. do the read
// versions' validity intervals share a common instant? A committed
// transaction that fails that check is an *anomaly*; the per-mode anomaly,
// abort and retry rates are what fig_coherence tabulates and the CI gate
// pins (zero anomalies under Δ-atomic and serializable, a nonzero baseline
// under fixed TTL).
//
// Determinism mirrors TrafficSimulation: all randomness forks off the
// stack's seed with salts keyed by the GLOBAL client index, so a client's
// transaction stream is a function of (seed, id) — never of shard count,
// sharding layout, or thread count.
#ifndef SPEEDKIT_CORE_CART_TRAFFIC_H_
#define SPEEDKIT_CORE_CART_TRAFFIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "core/stack.h"
#include "proxy/client_proxy.h"
#include "workload/catalog.h"
#include "workload/write_process.h"
#include "workload/zipf.h"

namespace speedkit::core {

// What E18 varies: fleet size, run length, transaction width and write
// rate. The shape of the workload is fixed in cart_traffic.cc.
struct CartTrafficConfig {
  size_t num_clients = 20;
  Duration duration = Duration::Minutes(10);
  // Distinct products per checkout transaction.
  size_t keys_per_txn = 4;
  double writes_per_sec = 2.0;
};

struct CartTrafficResult {
  uint64_t txns_attempted = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t txn_retries = 0;
  // Committed transactions whose read versions admit no common instant.
  uint64_t anomalies = 0;
  // Snapshot checks where a version-ring bound had rotated out (the check
  // clamps toward "consistent", so anomalies can only be under-counted).
  uint64_t anomaly_checks_clamped = 0;
  uint64_t writes_applied = 0;
  Histogram txn_latency_us;
  proxy::ProxyStats proxies;  // summed over all clients

  double AnomalyRate() const {
    return txns_committed == 0 ? 0.0
                               : static_cast<double>(anomalies) /
                                     static_cast<double>(txns_committed);
  }
  double AbortRate() const {
    return txns_attempted == 0 ? 0.0
                               : static_cast<double>(txns_aborted) /
                                     static_cast<double>(txns_attempted);
  }
};

class CartTrafficSimulation {
 public:
  CartTrafficSimulation(SpeedKitStack* stack,
                        const workload::Catalog* catalog,
                        const CartTrafficConfig& config);

  // Runs the configured duration; returns aggregated results. Staleness
  // numbers live in stack->staleness().
  CartTrafficResult Run();

 private:
  void ScheduleTxn(size_t client_index, SimTime at);
  void ScheduleNextWrite(SimTime from);
  void ExecuteTxn(size_t client_index);

  SpeedKitStack* stack_;
  const workload::Catalog* catalog_;
  CartTrafficConfig config_;
  SimTime end_;

  workload::ZipfGenerator popularity_;
  std::unique_ptr<proxy::ClientPool> pool_;
  std::vector<proxy::ClientProxy*> clients_;
  // Per owned client, indexed in lockstep with clients_; seeded by the
  // GLOBAL client index.
  std::vector<Pcg32> txn_rngs_;
  workload::WriteProcess writes_;
  Pcg32 rng_;
  CartTrafficResult result_;
};

}  // namespace speedkit::core

#endif  // SPEEDKIT_CORE_CART_TRAFFIC_H_
