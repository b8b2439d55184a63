#include "core/stack.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/metric_names.h"

namespace speedkit::core {
namespace {

// One node's outage windows must each run forward and be pairwise
// disjoint: the stack mirrors a window into a down event at `start` and an
// up event at `end`, so a backwards window leaves the node down for good
// and an overlap brings it back up inside the other window. Windows that
// touch ([a, b) and [b, c)) count as overlapping, because their events at
// b tie and run in insertion order; give one window [a, c) instead.
Status ValidateOutageWindows(const std::vector<sim::FaultWindow>& windows,
                             const std::string& node) {
  for (size_t i = 0; i < windows.size(); ++i) {
    const sim::FaultWindow& w = windows[i];
    if (w.end <= w.start) {
      return Status::InvalidArgument(node +
                                     " outage window must end after it starts");
    }
    for (size_t j = 0; j < i; ++j) {
      if (w.start <= windows[j].end && windows[j].start <= w.end) {
        return Status::InvalidArgument(node + " outage windows overlap");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

std::string_view SystemVariantName(SystemVariant variant) {
  switch (variant) {
    case SystemVariant::kSpeedKit:
      return "speed_kit";
    case SystemVariant::kFixedTtlCdn:
      return "fixed_ttl_cdn";
    case SystemVariant::kNoCaching:
      return "no_caching";
    case SystemVariant::kPureInvalidation:
      return "pure_invalidation";
  }
  return "unknown";
}

Status ParseSystemVariant(std::string_view text, SystemVariant* out) {
  for (SystemVariant v :
       {SystemVariant::kSpeedKit, SystemVariant::kFixedTtlCdn,
        SystemVariant::kNoCaching, SystemVariant::kPureInvalidation}) {
    if (text != SystemVariantName(v)) continue;
    *out = v;
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "unknown variant (expected speed_kit, fixed_ttl_cdn, no_caching or "
      "pure_invalidation)");
}

Status StackConfig::Validate() const {
  // Real errors at the call site beat silent clamping: a config that used
  // to be "fixed up" (edge count forced to 1, FPR squeezed into range)
  // produced runs that quietly measured something other than what was
  // asked for.
  if (cdn_edges < 1) {
    return Status::InvalidArgument("cdn_edges must be >= 1");
  }
  if (shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (cdn_edges % shards != 0) {
    return Status::InvalidArgument(
        "shards must divide cdn_edges (every shard owns the same number of "
        "edges)");
  }
  if (faults.edges.size() > static_cast<size_t>(cdn_edges)) {
    return Status::InvalidArgument(
        "faults.edges lists outage windows for edges the CDN does not have");
  }
  if (Status s = ValidateOutageWindows(faults.origin, "origin"); !s.ok()) {
    return s;
  }
  for (size_t e = 0; e < faults.edges.size(); ++e) {
    Status s = ValidateOutageWindows(faults.edges[e], StrFormat("edge %zu", e));
    if (!s.ok()) return s;
  }
  if (Status s = coherence.Validate(); !s.ok()) {
    return s;
  }
  return Status::Ok();
}

SpeedKitStack::SpeedKitStack(const StackConfig& config, int shard)
    : config_(config),
      shard_(shard),
      // Per-shard stream: golden-ratio stride on the stream id keeps the
      // shards' PCG sequences disjoint; shard 0 reproduces the legacy
      // single-domain stream exactly.
      rng_(config.seed,
           (config.seed ^ 0x5eed0001ULL) +
               static_cast<uint64_t>(shard) * 0x9e3779b97f4a7c15ULL),
      events_(&clock_),
      network_(config.network, rng_.Fork(1)) {
  if (Status valid = config_.Validate(); !valid.ok()) {
    std::fprintf(stderr, "SpeedKitStack: invalid StackConfig: %s\n",
                 valid.ToString().c_str());
    std::abort();
  }
  if (shard_ < 0 || shard_ >= config_.shards) {
    std::fprintf(stderr, "SpeedKitStack: shard %d out of range [0, %d)\n",
                 shard_, config_.shards);
    std::abort();
  }
  network_.SetFaults(&config_.faults);
  // TTL policy by variant/mode.
  switch (config_.variant) {
    case SystemVariant::kNoCaching:
      ttl_policy_ = std::make_unique<ttl::FixedTtlPolicy>(Duration::Zero());
      break;
    case SystemVariant::kPureInvalidation:
      // Purge-only coherence wants TTLs long enough to never expire within
      // a run; staleness is bounded by purge propagation alone.
      ttl_policy_ =
          std::make_unique<ttl::FixedTtlPolicy>(Duration::Seconds(7 * 86400));
      break;
    case SystemVariant::kFixedTtlCdn:
      ttl_policy_ = std::make_unique<ttl::FixedTtlPolicy>(config_.fixed_ttl);
      break;
    case SystemVariant::kSpeedKit:
      if (config_.ttl_mode == TtlMode::kFixed) {
        ttl_policy_ = std::make_unique<ttl::FixedTtlPolicy>(config_.fixed_ttl);
      } else {
        ttl_policy_ = std::make_unique<ttl::EstimatedTtlPolicy>(
            config_.max_estimated_ttl);
      }
      break;
  }

  // The coherence tier. Baselines run it in mode fixed_ttl whatever mode
  // was asked for: their coherence story is the TTL policy itself, and
  // mode() stays truthful for them.
  coherence::CoherenceConfig coherence_config = config_.coherence;
  if (config_.variant != SystemVariant::kSpeedKit) {
    coherence_config.mode = coherence::CoherenceMode::kFixedTtl;
  }
  protocol_ = std::make_unique<coherence::CoherenceProtocol>(coherence_config);
  cdn_ = std::make_unique<cache::Cdn>(config_.cdn_edges, shard_,
                                      config_.shards, config_.origin_flight);
  origin_ = std::make_unique<origin::OriginServer>(
      config_.origin, &clock_, &store_, ttl_policy_.get(),
      &protocol_->publication());

  if (UsesPipeline()) {
    // The origin records every handed-out freshness deadline; the pipeline
    // consults that same book to size sketch horizons.
    pipeline_ = std::make_unique<invalidation::InvalidationPipeline>(
        config_.pipeline, &clock_, &events_, cdn_.get(), protocol_.get(),
        &origin_->expiry_book(), rng_.Fork(2));
    pipeline_->SetFaults(&config_.faults);
    origin_->SetPipeline(pipeline_.get());
  }

  // Observability. Allocated only when switched on, so the default stack
  // pays nothing. The network histograms are live (filled as RTTs are
  // drawn); everything else is snapshotted via CollectMetrics().
  if (config_.obs.metrics) {
    metrics_ = std::make_shared<obs::MetricsRegistry>();
    network_.SetRttHistograms(
        metrics_->Histo(obs::kNetworkRttUs, "link=client_edge"),
        metrics_->Histo(obs::kNetworkRttUs, "link=client_origin"),
        metrics_->Histo(obs::kNetworkRttUs, "link=edge_origin"));
  }
  if (config_.obs.tracing) {
    trace_sink_ = std::make_shared<obs::InMemoryTraceSink>();
    tracer_ = std::make_unique<obs::Tracer>(trace_sink_.get());
    if (pipeline_ != nullptr) pipeline_->SetTracer(tracer_.get());
  }

  // Mirror outage windows into clock events so that components consult
  // plain availability flags instead of each re-deriving window coverage.
  // Each window toggles its node down at `start` and back up at `end`;
  // Validate() checked that one node's windows are disjoint.
  for (const sim::FaultWindow& w : config_.faults.origin) {
    events_.At(w.start, [this] { origin_->set_available(false); });
    events_.At(w.end, [this] { origin_->set_available(true); });
  }
  // Edge fault schedules are keyed by PHYSICAL edge index (shard-agnostic
  // config); each shard mirrors only the windows of edges it owns, in its
  // local index space.
  for (size_t e = 0; e < config_.faults.edges.size(); ++e) {
    int local = cdn_->LocalIndexOf(static_cast<int>(e));
    if (local < 0) continue;  // another shard's edge
    for (const sim::FaultWindow& w : config_.faults.edges[e]) {
      events_.At(w.start, [this, local] { cdn_->SetEdgeDown(local, true); });
      events_.At(w.end, [this, local] { cdn_->SetEdgeDown(local, false); });
    }
  }

  // Version instrumentation: date every materialized-query result version
  // and every record version. The protocol's staleness tracker is both the
  // anomaly-measurement ledger and (for serializable mode) the validation
  // authority.
  origin_->SetVersionListener(
      [this](const std::string& cache_key, uint64_t version) {
        protocol_->OnVersion(cache_key, version, clock_.Now());
      });
}

proxy::ProxyConfig SpeedKitStack::DefaultProxyConfig() const {
  proxy::ProxyConfig pc;
  // SWR is safe only under a sketch: it flags every changed key, so only
  // merely-expired copies take the SWR path. Without one, SWR would
  // stretch staleness past the TTL, or serve a version that serializable
  // validation then has to retry away.
  pc.stale_while_revalidate = protocol_->sketch() != nullptr;
  switch (config_.variant) {
    case SystemVariant::kSpeedKit:
      break;
    case SystemVariant::kFixedTtlCdn:
      pc.gdpr_mode = false;
      pc.offline_mode = false;
      pc.optimize_assets = false;  // no service worker, no rewriting
      pc.device_overhead = Duration::Zero();
      break;
    case SystemVariant::kNoCaching:
      pc.enabled = false;
      pc.use_cdn = false;
      pc.gdpr_mode = false;
      pc.offline_mode = false;
      pc.optimize_assets = false;
      pc.browser_cache_bytes = 1;  // admits nothing
      pc.device_overhead = Duration::Zero();
      break;
    case SystemVariant::kPureInvalidation:
      pc.gdpr_mode = false;
      pc.offline_mode = false;
      pc.optimize_assets = false;
      pc.browser_cache_bytes = 1;  // purges cannot reach the device
      pc.device_overhead = Duration::Zero();
      break;
  }
  return pc;
}

std::unique_ptr<proxy::ClientProxy> SpeedKitStack::MakeClient(
    uint64_t client_id, personalization::BoundaryAuditor* auditor) {
  return MakeClient(DefaultProxyConfig(), client_id, auditor);
}

std::unique_ptr<proxy::ClientProxy> SpeedKitStack::MakeClient(
    const proxy::ProxyConfig& proxy_config, uint64_t client_id,
    personalization::BoundaryAuditor* auditor) {
  return std::make_unique<proxy::ClientProxy>(proxy_config, client_id,
                                              ClientDeps(auditor));
}

proxy::ProxyDeps SpeedKitStack::ClientDeps(
    personalization::BoundaryAuditor* auditor) {
  proxy::ProxyDeps deps;
  deps.clock = &clock_;
  deps.network = &network_;
  deps.cdn = cdn_.get();
  deps.origin = origin_.get();
  deps.coherence = protocol_.get();
  deps.auditor = auditor;
  deps.tracer = tracer_.get();
  return deps;
}

std::unique_ptr<proxy::ClientPool> SpeedKitStack::MakeClientPool(
    const proxy::ClientPoolConfig& pool_config,
    personalization::BoundaryAuditor* auditor) {
  return std::make_unique<proxy::ClientPool>(pool_config, ClientDeps(auditor));
}

}  // namespace speedkit::core
