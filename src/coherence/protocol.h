// The pluggable coherence tier: one interface, three protocols.
//
// A CoherenceProtocol owns everything a deployment needs to bound (or
// decline to bound) staleness: the server-side Cache Sketch (Δ-atomic mode
// only), its publication surface, and the staleness tracker that dates
// every version and audits every read. The stack holds exactly one
// protocol object, selected by StackConfig::coherence, and the hooks fire
// from fixed points:
//
//   OnVersion       every dated write (object-store feed + materialized
//                   query bumps) — stack.cc write listeners
//   OnInvalidation  per invalidated key with its stale horizon — the
//                   invalidation pipeline's sketch report point (gated on
//                   WantsInvalidations so non-sketch modes skip the
//                   horizon computation entirely)
//   NewClient       one ClientCoherence per client proxy: the per-device
//                   half (snapshot freshness, revalidation verdicts)
//   StaleReadIndexes  serializable commit validation (version vector
//                   against the tracker's head versions)
//
// The Δ-atomic implementation is a pure re-homing of the pre-existing
// sketch wiring: a default-mode stack is bit-identical to the hard-wired
// version (pinned by tests/coherence/coherence_invariance_test.cc).
#ifndef SPEEDKIT_COHERENCE_PROTOCOL_H_
#define SPEEDKIT_COHERENCE_PROTOCOL_H_

#include <memory>
#include <string_view>
#include <vector>

#include "coherence/coherence_config.h"
#include "coherence/sketch_publication.h"
#include "coherence/staleness.h"
#include "common/sim_time.h"
#include "sketch/cache_sketch.h"
#include "sketch/client_sketch.h"

namespace speedkit::coherence {

// The per-client half of a coherence protocol. The base class is the
// no-op protocol client (fixed-TTL, serializable): nothing to refresh,
// nothing to revalidate. Δ-atomic overrides everything with the client
// sketch.
class ClientCoherence {
 public:
  virtual ~ClientCoherence() = default;

  // True when the client's coherence state is due a (blocking) refresh
  // before the next cache read.
  virtual bool NeedsRefresh(SimTime /*now*/) const { return false; }

  // Refresh decision at a multi-key transaction's begin: Δ-atomic demands
  // a snapshot taken at the transaction's own instant (any older snapshot
  // admits reads from before a write inside its age), which is stricter
  // than the per-read Δ cadence.
  virtual bool NeedsTxnRefresh(SimTime /*now*/) const { return false; }

  // Performs the due refresh against the protocol's publication; returns
  // the wire bytes transferred (the caller charges network time).
  virtual size_t InstallRefresh(SimTime /*now*/) { return 0; }

  // Read-freshness decision: must a cached copy of `key` be revalidated
  // at the origin (bypassing every shared cache)?
  virtual bool MustRevalidate(std::string_view /*key*/) { return false; }

  // The underlying client sketch when this protocol has one (Δ-atomic
  // only; null otherwise). For stats and tests.
  virtual sketch::ClientSketch* client_sketch() { return nullptr; }
};

class CoherenceProtocol {
 public:
  virtual ~CoherenceProtocol() = default;

  CoherenceProtocol(const CoherenceProtocol&) = delete;
  CoherenceProtocol& operator=(const CoherenceProtocol&) = delete;

  CoherenceMode mode() const { return config_.mode; }

  // Admission check: may a TTL-expired (but protocol-clean) copy be
  // served instantly while revalidating in the background? Only Δ-atomic
  // can afford this — its sketch flags genuinely changed keys, so SWR
  // re-serves only content that merely expired. Without that signal SWR
  // would stretch staleness unboundedly.
  virtual bool AdmitStaleWhileRevalidate() const = 0;

  // Whether the invalidation pipeline should compute stale horizons and
  // report invalidated keys here. Only Δ-atomic wants them; gating here
  // lets other modes skip the per-key ExpiryBook lookup entirely.
  virtual bool WantsInvalidations() const { return false; }

  // Per-key invalidation hook: `key` was written while cached copies may
  // live until `stale_until`.
  virtual void OnInvalidation(std::string_view /*key*/,
                              SimTime /*stale_until*/, SimTime /*now*/) {}

  // Every dated version: record writes and materialized query bumps.
  void OnVersion(std::string_view key, uint64_t version, SimTime now) {
    staleness_.RecordWrite(key, version, now);
  }

  // One per client proxy. `refresh_interval` is the proxy's configured Δ
  // (normally config().delta; proxy tests override it).
  virtual std::unique_ptr<ClientCoherence> NewClient(Duration refresh_interval);

  // Serializable commit check: indexes into `reads` whose version no
  // longer matches the version authority's head. Empty means the read set
  // is a consistent snapshot and the transaction may commit.
  virtual std::vector<size_t> StaleReadIndexes(
      const std::vector<ReadVersion>& /*reads*/) const {
    return {};
  }

  const CoherenceConfig& config() const { return config_; }
  StalenessTracker& staleness() { return staleness_; }
  const StalenessTracker& staleness() const { return staleness_; }
  SketchPublication& publication() { return publication_; }
  // Null except in Δ-atomic mode.
  sketch::CacheSketch* sketch() { return sketch_.get(); }

 protected:
  CoherenceProtocol(const CoherenceConfig& config,
                    std::unique_ptr<sketch::CacheSketch> sketch)
      : config_(config),
        sketch_(std::move(sketch)),
        publication_(sketch_.get()) {}

  CoherenceConfig config_;
  std::unique_ptr<sketch::CacheSketch> sketch_;
  SketchPublication publication_;
  StalenessTracker staleness_;
};

// Builds the protocol selected by `config`. `sketch_variant` is false for
// baseline system variants that hard-wire their own coherence (fixed-TTL
// CDN, no caching, purge-only): they always get the fixed-TTL protocol
// object — staleness bookkeeping plus an empty publication, exactly the
// null-sketch behavior they had before the tier existed — with the
// config's mode normalized to kFixedTtl so mode() never misreports.
std::unique_ptr<CoherenceProtocol> MakeCoherenceProtocol(
    const CoherenceConfig& config, bool sketch_variant);

}  // namespace speedkit::coherence

#endif  // SPEEDKIT_COHERENCE_PROTOCOL_H_
