// The client's view of the Cache Sketch.
//
// The client proxy holds one of these and refreshes it from the server at
// most every Δ (`refresh_interval`). Between refreshes, `MightBeStale` is
// answered from the last snapshot; the snapshot's age is exactly the
// staleness bound the protocol guarantees. A client that has never fetched
// a snapshot answers "might be stale" for everything — conservative, never
// wrong.
#ifndef SPEEDKIT_SKETCH_CLIENT_SKETCH_H_
#define SPEEDKIT_SKETCH_CLIENT_SKETCH_H_

#include <memory>
#include <string_view>

#include "common/sim_time.h"
#include "common/status.h"
#include "sketch/bloom_filter.h"

namespace speedkit::coherence {
class SketchPublication;
}  // namespace speedkit::coherence

namespace speedkit::sketch {

class ClientSketch {
 public:
  explicit ClientSketch(Duration refresh_interval)
      : refresh_interval_(refresh_interval) {}

  // True when the snapshot is older than Δ (or absent) and should be
  // re-fetched before the next cache read.
  bool NeedsRefresh(SimTime now) const;

  // Installs a snapshot received from the server (wire form).
  Status Update(std::string_view serialized, SimTime now);

  // Membership check against the last snapshot. `true` means the cached
  // copy must be revalidated; `false` means it is safe to serve (up to the
  // snapshot's age in staleness).
  bool MightBeStale(std::string_view key) const;

  bool HasSnapshot() const { return filter_ != nullptr; }
  // The installed snapshot filter (null before the first refresh).
  const BloomFilter* filter() const { return filter_.get(); }
  SimTime fetched_at() const { return fetched_at_; }
  Duration Age(SimTime now) const {
    return HasSnapshot() ? now - fetched_at_ : Duration::Max();
  }

 private:
  // Fleet-shared installs flow through the coherence tier's publication
  // handle only: it is the one caller that can guarantee the filter is
  // the published immutable view.
  friend class speedkit::coherence::SketchPublication;

  // Installs a pre-deserialized snapshot shared across the whole fleet.
  void Install(std::shared_ptr<const BloomFilter> filter, SimTime now);

  Duration refresh_interval_;
  // Shared and immutable: a million clients refreshed inside the same Δ
  // window all point at one filter object.
  std::shared_ptr<const BloomFilter> filter_;
  SimTime fetched_at_;
};

}  // namespace speedkit::sketch

#endif  // SPEEDKIT_SKETCH_CLIENT_SKETCH_H_
