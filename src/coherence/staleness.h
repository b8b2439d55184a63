// Staleness measurement — the instrument behind the Δ-atomicity claim,
// and the version authority behind serializable read validation.
//
// Every write is dated per (cache key, version); every read reports the
// version it served. A read of version v at time t is *stale* if a newer
// version existed at t; its staleness is t minus the time v was overwritten
// (the moment the read value stopped being current). Δ-atomicity holds for
// a run iff max staleness <= Δ + purge propagation; E2 sweeps Δ and checks
// exactly this number.
//
// For multi-key transactions the same per-key version rings answer two
// more questions: what is the current (head) version of a key, and did a
// set of reads observe a consistent snapshot — i.e. do the validity
// intervals of the read versions share a common instant (E18).
//
// Version write times are kept in bounded per-key rings; if a version has
// already rotated out, the staleness is *underestimated* by clamping to the
// oldest known write — the tracker reports how often that happened so the
// bound is never silently weakened. Snapshot checks clamp the same way,
// toward "consistent".
#ifndef SPEEDKIT_COHERENCE_STALENESS_H_
#define SPEEDKIT_COHERENCE_STALENESS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "common/sim_time.h"

namespace speedkit::coherence {

struct StalenessReport {
  uint64_t reads = 0;
  uint64_t stale_reads = 0;
  uint64_t clamped = 0;  // staleness underestimated (ring overflow)
  Duration max_staleness = Duration::Zero();
  // Δ-bound accounting (fault injection, E14): a read staler than the
  // armed bound is a violation — unless it was excused, i.e. the caller
  // knowingly traded freshness for availability (offline serves during an
  // outage). Excused stale reads are tallied separately so availability
  // wins are visible without masking coherence regressions.
  uint64_t delta_violations = 0;
  uint64_t excused_stale_reads = 0;

  double StaleFraction() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(stale_reads) /
                            static_cast<double>(reads);
  }

  double ViolationFraction() const {
    return reads == 0 ? 0.0
                      : static_cast<double>(delta_violations) /
                            static_cast<double>(reads);
  }

  // Accumulates another run's report (counters summed, bound max'd) for
  // the multi-seed harness.
  void Merge(const StalenessReport& other) {
    reads += other.reads;
    stale_reads += other.stale_reads;
    clamped += other.clamped;
    if (other.max_staleness > max_staleness) {
      max_staleness = other.max_staleness;
    }
    delta_violations += other.delta_violations;
    excused_stale_reads += other.excused_stale_reads;
  }
};

// One read of a multi-key transaction: the cache key and the version the
// serving tier handed back.
struct ReadVersion {
  std::string key;
  uint64_t version = 0;
};

// Verdict of a snapshot-consistency check. `clamped` flags checks where
// some interval bound had rotated out of the version ring — the missing
// bound is taken as infinitely generous, so clamping can only under-count
// anomalies (mirroring the staleness clamp above).
struct SnapshotCheck {
  bool consistent = true;
  bool clamped = false;
};

class StalenessTracker {
 public:
  // `ring_capacity`: how many recent versions are dated per key.
  explicit StalenessTracker(size_t ring_capacity = 64)
      : ring_capacity_(ring_capacity) {}

  // Dates `version` of `key` at `now`. Must be called for every write,
  // in version order per key.
  void RecordWrite(std::string_view key, uint64_t version, SimTime now);

  // Reports a read that served `version` of `key` at `now`. Returns the
  // read's staleness (zero if current). `excused` marks reads where the
  // serving layer deliberately chose availability over freshness (offline
  // mode): they count as stale but never as Δ-violations.
  Duration RecordRead(std::string_view key, uint64_t version, SimTime now,
                      bool excused = false);

  // Head (most recently written) version of `key`; nullopt when the key
  // was never written. The serializable protocol validates read vectors
  // against exactly this.
  std::optional<uint64_t> CurrentVersion(std::string_view key) const;

  // Did `reads` observe a consistent snapshot? Each read version v of a
  // key is valid over [written_at(v), written_at(first version > v)); the
  // set is consistent iff those intervals share a common instant
  // (max birth < min death). Keys the tracker never saw written are valid
  // forever and constrain nothing; bounds that rotated out of the ring
  // are taken as infinitely generous and flagged via `clamped`.
  SnapshotCheck CheckSnapshot(const std::vector<ReadVersion>& reads) const;

  // Arms Δ-bound checking: any non-excused read staler than `bound`
  // increments delta_violations. Duration::Max() (the default) disables
  // the check. Callers set this to Δ + a purge-propagation allowance.
  void SetDeltaBound(Duration bound) { delta_bound_ = bound; }
  Duration delta_bound() const { return delta_bound_; }

  const StalenessReport& report() const { return report_; }
  // Staleness of stale reads only, microseconds.
  const Histogram& staleness_us() const { return staleness_us_; }

 private:
  using DatedWrite = std::pair<uint64_t, SimTime>;  // (version, written_at)

  // The most recent dated writes of one key: a ring that grows to
  // ring_capacity and then overwrites its oldest slot. Index i counts from
  // the oldest write, so scans see ascending versions.
  struct KeyHistory {
    uint64_t head_version = 0;
    std::vector<DatedWrite> ring;
    size_t oldest = 0;  // slot of the oldest write once the ring is full

    size_t size() const { return ring.size(); }
    const DatedWrite& at(size_t i) const {
      return ring[(oldest + i) % ring.size()];
    }
    void Push(DatedWrite write, size_t capacity);
    // Index of the oldest write satisfying `pred`; size() when none does.
    template <typename Pred>
    size_t FindFirst(Pred pred) const {
      for (size_t i = 0; i < size(); ++i) {
        if (pred(at(i))) return i;
      }
      return size();
    }
  };

  size_t ring_capacity_;
  Duration delta_bound_ = Duration::Max();
  std::unordered_map<std::string, KeyHistory, StringHash, std::equal_to<>>
      keys_;
  StalenessReport report_;
  Histogram staleness_us_;
};

}  // namespace speedkit::coherence

#endif  // SPEEDKIT_COHERENCE_STALENESS_H_
