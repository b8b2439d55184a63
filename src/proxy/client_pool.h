// Arena-backed fleet of client proxies with shared accounting and
// cold-client spill.
//
// At fleet scale (E16 sweeps to a million clients) the per-client costs
// that are invisible at n=100 dominate everything: one heap allocation
// per proxy, one ProxyStats (counters + seven histograms) per proxy that
// is only ever read as a sum, and a fully materialized browser cache per
// proxy even when the client has been idle for minutes. A ClientPool owns
// all three problems:
//
//   - proxies live in a ChunkedPool arena — one allocation per 256
//     clients, stable addresses, index order = creation order;
//   - every proxy records into the pool's single ProxyStats sink
//     (ProxyDeps::stats_sink), so per-client stats storage drops to a
//     pointer; the aggregate is bit-identical to summing per-client stats
//     because counter increments are unchanged and integer-valued
//     histogram sums are exact;
//   - SpillIdle() freezes the browser caches of clients idle for
//     kSpillIdleThreshold into compact blobs; the next request thaws
//     losslessly (see ClientProxy::FreezeBrowserCache).
//
// Spill is kAuto by default: off for small fleets (below
// kSpillAutoThreshold clients nothing is gained) and on for large ones.
// The traffic simulation decides *when* to sweep (it owns the event
// loop); the pool only provides the sweep primitive.
#ifndef SPEEDKIT_PROXY_CLIENT_POOL_H_
#define SPEEDKIT_PROXY_CLIENT_POOL_H_

#include <cstddef>
#include <cstdint>

#include "common/chunked_pool.h"
#include "common/sim_time.h"
#include "proxy/client_proxy.h"

namespace speedkit::proxy {

enum class SpillMode {
  kOff,
  kAuto,  // on once the fleet reaches ClientPool::kSpillAutoThreshold
  kOn,
};

// The fleet's memory policy. Only the spill mode is a setting: E16 runs
// the same fleet with spill on and off and checks the results agree.
struct ClientPoolConfig {
  SpillMode spill = SpillMode::kAuto;
};

// Point-in-time spill accounting, computed over the fleet.
struct ClientPoolSpillStats {
  uint64_t sweeps = 0;        // SpillIdle calls
  uint64_t freezes = 0;       // cumulative cache freezes
  uint64_t thaws = 0;         // cumulative rehydrations
  size_t frozen_clients = 0;  // currently spilled
  size_t frozen_bytes = 0;    // blob + handle-list bytes spilled clients hold
};

class ClientPool {
 public:
  // Fleet size at which kAuto turns spill on; smaller fleets gain too
  // little from the blobs to pay for freeze and thaw.
  static constexpr size_t kSpillAutoThreshold = 4096;
  // A client whose last foreground request is at least this old is a
  // spill candidate. It is 7.5 mean think times of the session model, so
  // a client in the middle of a session is almost never frozen.
  static constexpr Duration kSpillIdleThreshold = Duration::Seconds(60);

  // `deps` is the stack-level dependency set; the pool overrides its
  // stats_sink with the pool's own aggregate. Copies of `deps` are taken
  // per client, so the referenced services must outlive the pool.
  ClientPool(const ClientPoolConfig& config, const ProxyDeps& deps);

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  // Creates one client in the arena. Stable address for the pool's
  // lifetime.
  ClientProxy* MakeClient(const ProxyConfig& config, uint64_t client_id);

  size_t size() const { return clients_.size(); }
  ClientProxy* at(size_t i) { return clients_.at(i); }
  const ClientProxy* at(size_t i) const { return clients_.at(i); }

  // The fleet-wide aggregate every pooled client records into.
  const ProxyStats& stats() const { return sink_; }

  bool spill_enabled() const {
    switch (config_.spill) {
      case SpillMode::kOff: return false;
      case SpillMode::kOn: return true;
      case SpillMode::kAuto:
        return clients_.size() >= kSpillAutoThreshold;
    }
    return false;
  }

  // Freezes the browser cache of every thawed client whose last
  // foreground request is at least kSpillIdleThreshold before `now`.
  // Returns how many were newly frozen.
  // No-op (returns 0) when spill is disabled. Deterministic: iterates in
  // creation order and draws no randomness.
  size_t SpillIdle(SimTime now);

  ClientPoolSpillStats SpillStats() const;

  const ClientPoolConfig& config() const { return config_; }

 private:
  ClientPoolConfig config_;
  ProxyDeps deps_;
  ProxyStats sink_;
  ChunkedPool<ClientProxy> clients_;
  uint64_t sweeps_ = 0;
};

}  // namespace speedkit::proxy

#endif  // SPEEDKIT_PROXY_CLIENT_POOL_H_
