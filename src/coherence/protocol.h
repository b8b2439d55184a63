// The coherence tier: one object whose behaviour follows
// CoherenceConfig::mode.
//
// A CoherenceProtocol owns everything a deployment needs to bound (or
// decline to bound) staleness: the server-side Cache Sketch (Δ-atomic mode
// only), its publication surface, and the staleness tracker that dates
// every version and audits every read. The stack holds exactly one,
// built from StackConfig::coherence (baseline variants run it in mode
// fixed_ttl), and its hooks fire from fixed points:
//
//   OnVersion         every dated write (record versions and materialized
//                     query bumps) — the origin's version listener
//   sketch()          the invalidation pipeline reports each invalidated
//                     key with its stale horizon, and only computes that
//                     horizon when the sketch exists
//   StaleReadIndexes  serializable commit validation (the read version
//                     vector against the tracker's head versions)
//
// The modes:
//   delta_atomic  the paper's Cache Sketch. Clients refresh a snapshot of
//                 possibly-stale keys every Δ and send flagged keys past
//                 every shared cache, bounding read staleness to Δ + purge
//                 propagation.
//   serializable  version-vector read validation (after Eyal, Birman & van
//                 Renesse). Reads serve from whatever cache answers; at
//                 commit one round trip compares the read versions against
//                 the tracker's heads, mismatches re-fetch past the shared
//                 caches, and a vector that never converges aborts.
//   fixed_ttl     plain expiration, and the mode every baseline runs.
//                 Nothing warns a client that a key changed; the tracker
//                 still measures staleness, and the publication is a
//                 constant empty filter.
//
// The per-client half lives in the proxy: a client of a protocol with a
// sketch keeps its own sketch::ClientSketch and refreshes it through
// publication().
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

namespace speedkit::coherence {

class CoherenceProtocol {
 public:
  // Keeps a sketch exactly when config.mode is kDeltaAtomic.
  explicit CoherenceProtocol(const CoherenceConfig& config);

  CoherenceProtocol(const CoherenceProtocol&) = delete;
  CoherenceProtocol& operator=(const CoherenceProtocol&) = delete;

  CoherenceMode mode() const { return config_.mode; }

  // Every dated version: record writes and materialized query bumps.
  void OnVersion(std::string_view key, uint64_t version, SimTime now) {
    staleness_.RecordWrite(key, version, now);
  }

  // Serializable commit check: indexes into `reads` whose version no
  // longer matches the version authority's head. Empty means the read set
  // is a consistent snapshot and the transaction may commit.
  std::vector<size_t> StaleReadIndexes(
      const std::vector<ReadVersion>& reads) const;

  const CoherenceConfig& config() const { return config_; }
  StalenessTracker& staleness() { return staleness_; }
  const StalenessTracker& staleness() const { return staleness_; }
  SketchPublication& publication() { return publication_; }
  // Null except in Δ-atomic mode.
  sketch::CacheSketch* sketch() { return sketch_.get(); }

 private:
  CoherenceConfig config_;
  std::unique_ptr<sketch::CacheSketch> sketch_;
  SketchPublication publication_;
  StalenessTracker staleness_;
};

}  // namespace speedkit::coherence

#endif  // SPEEDKIT_COHERENCE_PROTOCOL_H_
