// SpeedKitStack: one fully-wired deployment — clock, network, origin store,
// TTL policy, Cache Sketch, CDN, invalidation pipeline, staleness tracker —
// plus a factory for client proxies.
//
// `SystemVariant` selects the paper's system or one of the baselines it is
// evaluated against (E9):
//   kSpeedKit          sketch coherence + estimated TTLs + CDN + browser
//   kFixedTtlCdn       traditional CDN: fixed TTLs, no invalidation at all —
//                      stale until expiry (the paper's "fixed caching times")
//   kNoCaching         every request goes to the origin
//   kPureInvalidation  long TTLs + purge-only coherence, no browser caching
//                      (browser copies cannot be purged, so a purge-only
//                      design must not create them)
#ifndef SPEEDKIT_CORE_STACK_H_
#define SPEEDKIT_CORE_STACK_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "cache/cdn.h"
#include "coherence/coherence_config.h"
#include "coherence/protocol.h"
#include "common/random.h"
#include "common/status.h"
#include "invalidation/pipeline.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/trace.h"
#include "origin/origin_server.h"
#include "proxy/client_pool.h"
#include "proxy/client_proxy.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/fault_schedule.h"
#include "sim/network.h"
#include "sketch/cache_sketch.h"
#include "storage/object_store.h"
#include "ttl/ttl_policy.h"

namespace speedkit::core {

enum class SystemVariant {
  kSpeedKit,
  kFixedTtlCdn,
  kNoCaching,
  kPureInvalidation,
};

std::string_view SystemVariantName(SystemVariant variant);

enum class TtlMode { kEstimator, kFixed };

struct StackConfig {
  SystemVariant variant = SystemVariant::kSpeedKit;
  uint64_t seed = 42;

  // Infrastructure.
  int cdn_edges = 4;
  size_t edge_capacity_bytes = 0;  // 0 = unbounded
  // Coherence domains for the sharded fleet engine (core/fleet.h). Clients
  // partition by the edge they route to (edge e belongs to shard
  // e % shards), each shard gets a full stack replica owning its own
  // edges, and merged results are a pure function of (seed, shards) —
  // identical for ANY thread count executing the shards. Must divide
  // cdn_edges. shards > 1 takes effect through ShardedFleet / the workload
  // runners.
  int shards = 1;
  sim::NetworkConfig network;
  origin::OriginConfig origin;
  // Concurrent-miss semantics at the edge while an origin fetch for the
  // same key is in flight (see cache::OriginFlightMode). kInstant — the
  // legacy instantaneous-store model — is the default, keeping every
  // pre-existing fingerprint bit-identical; kHerd models the in-flight
  // window honestly (arrivals stampede to the origin); kCoalesce adds
  // single-flight collapsing, the mechanism speedkit_edged runs over real
  // wall-clock windows.
  cache::OriginFlightMode origin_flight = cache::OriginFlightMode::kInstant;

  // Coherence tier: which CoherenceProtocol runs (Δ-atomic sketch,
  // serializable read-validation, or plain fixed-TTL) and its knobs — Δ
  // and the transaction retry budget. Only consulted for the kSpeedKit
  // variant; baselines always get the fixed-TTL protocol.
  coherence::CoherenceConfig coherence;
  invalidation::PipelineConfig pipeline;

  // TTLs (only consulted for variants that cache).
  TtlMode ttl_mode = TtlMode::kEstimator;
  Duration fixed_ttl = Duration::Seconds(60);
  ttl::EstimatorConfig estimator;

  // Fault injection (E14). Link loss and purge loss/delay are applied
  // probabilistically from the components' own RNG streams; origin and
  // edge outage windows become clock events at construction. An empty
  // schedule reproduces a no-schedule run bit-for-bit.
  sim::FaultScheduleConfig faults;

  // Observability (off by default; turning it on never changes results —
  // see docs/METRICS.md and docs/ARCHITECTURE.md).
  obs::ObsConfig obs;

  // Structural sanity of the configuration. The stack constructor calls
  // this and refuses to build on error — a bad value is a real error at
  // the call site, not something to silently clamp into range. Checks:
  // cdn_edges >= 1, shards >= 1, shards divides cdn_edges, plus
  // CoherenceConfig::Validate (delta > 0, max_txn_retries >= 0).
  Status Validate() const;
};

class SpeedKitStack {
 public:
  // Shard `shard` of config.shards coherence domains: builds and owns the
  // CDN edges that shard owns, and derives a per-shard RNG stream from
  // (config.seed, shard) so shard streams never collide. With
  // config.shards == 1 (every direct construction) that is the whole edge
  // tier; with config.shards > 1 a stack built without a shard index is
  // shard 0 and serves only its slice — sharded runs go through
  // ShardedFleet. Aborts if config.Validate() fails or `shard` is out of
  // range.
  explicit SpeedKitStack(const StackConfig& config, int shard = 0);

  SpeedKitStack(const SpeedKitStack&) = delete;
  SpeedKitStack& operator=(const SpeedKitStack&) = delete;

  // Proxy settings implied by the variant; callers may tweak before
  // MakeClient.
  proxy::ProxyConfig DefaultProxyConfig() const;

  std::unique_ptr<proxy::ClientProxy> MakeClient(
      uint64_t client_id, personalization::BoundaryAuditor* auditor = nullptr);
  std::unique_ptr<proxy::ClientProxy> MakeClient(
      const proxy::ProxyConfig& proxy_config, uint64_t client_id,
      personalization::BoundaryAuditor* auditor = nullptr);

  // The dependency set MakeClient hands every proxy — for callers that
  // construct clients themselves (a proxy::ClientPool fills in its own
  // stats sink on top). A client built from ClientDeps() is identical to
  // one from MakeClient with the same config.
  proxy::ProxyDeps ClientDeps(
      personalization::BoundaryAuditor* auditor = nullptr);

  // An arena-backed fleet wired against this stack (see
  // proxy/client_pool.h): pooled allocation, shared stats sink and
  // optional cold-client spill — the constructor for drivers that create
  // clients by the thousand.
  std::unique_ptr<proxy::ClientPool> MakeClientPool(
      const proxy::ClientPoolConfig& pool_config,
      personalization::BoundaryAuditor* auditor = nullptr);

  // Advances simulated time, running due events (CDN purges etc.).
  void AdvanceTo(SimTime t) { events_.RunUntil(t); }
  void Advance(Duration d) { AdvanceTo(clock_.Now() + d); }

  const StackConfig& config() const { return config_; }
  // Which coherence domain this stack is (0 for a single-domain stack).
  int shard() const { return shard_; }
  // Whether this stack's shard owns `client_id` (always true for a
  // single-domain stack). Drivers must only MakeClient for owned clients.
  bool OwnsClient(uint64_t client_id) const { return cdn_->OwnsClient(client_id); }
  sim::SimClock& clock() { return clock_; }
  sim::EventQueue& events() { return events_; }
  sim::Network& network() { return network_; }
  storage::ObjectStore& store() { return store_; }
  origin::OriginServer& origin() { return *origin_; }
  cache::Cdn& cdn() { return *cdn_; }
  // The coherence tier — never null; baselines run the fixed-TTL protocol.
  coherence::CoherenceProtocol& coherence_protocol() { return *protocol_; }
  // Null for protocols without sketch coherence.
  sketch::CacheSketch* sketch() { return protocol_->sketch(); }
  // Null for variants without an invalidation pipeline.
  invalidation::InvalidationPipeline* pipeline() { return pipeline_.get(); }
  ttl::TtlPolicy& ttl_policy() { return *ttl_policy_; }
  coherence::StalenessTracker& staleness() { return protocol_->staleness(); }
  const sim::FaultSchedule& faults() { return faults_; }

  // Forks a deterministic child RNG for drivers.
  Pcg32 ForkRng(uint64_t salt) { return rng_.Fork(salt); }

  // -- observability ---------------------------------------------------
  // Null unless config.obs.metrics / config.obs.tracing are on. Shared
  // pointers so harness outputs (RunOutput) can outlive the stack.
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }
  const std::shared_ptr<obs::InMemoryTraceSink>& trace_sink() const {
    return trace_sink_;
  }
  obs::Tracer* tracer() { return tracer_.get(); }

  // Snapshots every component's stats into `reg` under the names in
  // obs/metric_names.h: the stack's own registry (metrics()) at the end of
  // a run, or a fresh one per scrape on a live node. `merged_proxies`
  // carries the proxy counters (the stack does not own its clients); pass
  // null to skip the proxy family. Implemented in stack_metrics.cc — the
  // one file that knows every stats struct.
  void CollectMetrics(const proxy::ProxyStats* merged_proxies,
                      obs::MetricsRegistry* reg);

 private:
  bool UsesPipeline() const {
    return config_.variant == SystemVariant::kSpeedKit ||
           config_.variant == SystemVariant::kPureInvalidation;
  }

  StackConfig config_;
  int shard_ = 0;
  Pcg32 rng_;
  sim::SimClock clock_;
  sim::EventQueue events_;
  sim::FaultSchedule faults_;
  sim::Network network_;
  storage::ObjectStore store_;
  std::unique_ptr<ttl::TtlPolicy> ttl_policy_;
  std::unique_ptr<coherence::CoherenceProtocol> protocol_;
  std::unique_ptr<cache::Cdn> cdn_;
  std::unique_ptr<origin::OriginServer> origin_;
  std::unique_ptr<invalidation::InvalidationPipeline> pipeline_;

  // Observability (null when off). The tracer is heap-allocated so the
  // pointer handed to proxies/pipeline stays stable.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::InMemoryTraceSink> trace_sink_;
  std::unique_ptr<obs::Tracer> tracer_;
};

}  // namespace speedkit::core

#endif  // SPEEDKIT_CORE_STACK_H_
