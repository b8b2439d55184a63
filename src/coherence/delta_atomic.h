// The paper-faithful default: Cache Sketch Δ-atomicity.
//
// Server side, the protocol owns the CacheSketch; the invalidation
// pipeline reports every invalidated key with its stale horizon, and the
// publication memo hands every client one shared immutable snapshot per Δ
// window. Client side, a snapshot older than Δ is re-fetched before the
// next cache read, and flagged keys bypass every shared cache on the way
// to the origin — bounding read staleness to Δ + purge propagation.
#ifndef SPEEDKIT_COHERENCE_DELTA_ATOMIC_H_
#define SPEEDKIT_COHERENCE_DELTA_ATOMIC_H_

#include <memory>
#include <string_view>

#include "coherence/protocol.h"

namespace speedkit::coherence {

class DeltaAtomicProtocol : public CoherenceProtocol {
 public:
  explicit DeltaAtomicProtocol(const CoherenceConfig& config);

  // Safe under the sketch: a genuinely changed key is flagged and never
  // takes the SWR path, so SWR only re-serves merely-TTL-expired content.
  bool AdmitStaleWhileRevalidate() const override { return true; }
  bool WantsInvalidations() const override { return true; }
  void OnInvalidation(std::string_view key, SimTime stale_until,
                      SimTime now) override;
  std::unique_ptr<ClientCoherence> NewClient(
      Duration refresh_interval) override;
};

class DeltaAtomicClient : public ClientCoherence {
 public:
  DeltaAtomicClient(SketchPublication* publication, Duration refresh_interval)
      : publication_(publication), sketch_(refresh_interval) {}

  bool NeedsRefresh(SimTime now) const override {
    return sketch_.NeedsRefresh(now);
  }
  // A transaction's reads all happen at one instant; only a snapshot
  // taken at that same instant proves none of them is stale. Any age > 0
  // (or no snapshot at all) forces a refresh.
  bool NeedsTxnRefresh(SimTime now) const override {
    return !sketch_.HasSnapshot() || sketch_.Age(now) > Duration::Zero();
  }
  size_t InstallRefresh(SimTime now) override {
    return publication_->InstallInto(&sketch_, now);
  }
  bool MustRevalidate(std::string_view key) override {
    return sketch_.MightBeStale(key);
  }
  sketch::ClientSketch* client_sketch() override { return &sketch_; }

 private:
  SketchPublication* publication_;
  sketch::ClientSketch sketch_;
};

}  // namespace speedkit::coherence

#endif  // SPEEDKIT_COHERENCE_DELTA_ATOMIC_H_
