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
//   - SpillIdle() freezes the browser caches of clients idle longer than
//     the configured threshold into compact blobs; the next request
//     thaws losslessly (see ClientProxy::FreezeBrowserCache).
//
// Spill is kAuto by default: off for small fleets (below
// spill_auto_threshold nothing is gained) and on for large ones. The
// driver decides *when* to sweep (it owns the event loop); the pool only
// provides the sweep primitive.
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
  kAuto,  // on once the fleet reaches spill_auto_threshold clients
  kOn,
};

struct ClientPoolConfig {
  SpillMode spill = SpillMode::kAuto;
  size_t spill_auto_threshold = 4096;
  // A client whose last foreground request is older than this is a spill
  // candidate.
  Duration spill_idle_threshold = Duration::Seconds(60);
  // Suggested cadence for SpillIdle sweeps (the driver schedules them).
  Duration spill_sweep_interval = Duration::Seconds(30);
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
        return clients_.size() >= config_.spill_auto_threshold;
    }
    return false;
  }

  // Freezes the browser cache of every thawed client idle since before
  // `now - spill_idle_threshold`. Returns how many were newly frozen.
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
