// TTL policies: how long the origin tells caches to keep each resource.
//
// The tension the Cache Sketch protocol resolves: a long TTL maximizes hits
// but loads the sketch (every write during the TTL adds the key and forces
// client revalidations); a short TTL keeps the sketch empty but forfeits
// hits. The estimator aims TTLs at each object's write behaviour so that
// the object is written before its TTL runs out with probability
// `kInvalidationBudget`.
//
// Model (companion-paper style): per-key writes are treated as Poisson with
// rate λ estimated from an EWMA of inter-write gaps. P(write within t) =
// 1 - e^{-λt}, so the largest TTL whose invalidation probability stays
// within budget p is  t* = -ln(1 - p) / λ.
#ifndef SPEEDKIT_TTL_TTL_POLICY_H_
#define SPEEDKIT_TTL_TTL_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/sim_time.h"

namespace speedkit::ttl {

class TtlPolicy {
 public:
  virtual ~TtlPolicy() = default;

  // TTL to stamp on a response for `key` served at `now`.
  virtual Duration TtlFor(std::string_view key, SimTime now) = 0;

  // Feed of write observations (the estimator learns from these; fixed
  // policies ignore them).
  virtual void ObserveWrite(std::string_view key, SimTime now) = 0;
};

// Always the same TTL; the traditional-CDN baseline.
class FixedTtlPolicy : public TtlPolicy {
 public:
  explicit FixedTtlPolicy(Duration ttl) : ttl_(ttl) {}
  Duration TtlFor(std::string_view, SimTime) override { return ttl_; }
  void ObserveWrite(std::string_view, SimTime) override {}

 private:
  Duration ttl_;
};

// TTL zero: nothing is cacheable; the no-caching baseline.
class NoCachePolicy : public TtlPolicy {
 public:
  Duration TtlFor(std::string_view, SimTime) override {
    return Duration::Zero();
  }
  void ObserveWrite(std::string_view, SimTime) override {}
};

struct EstimatorStats {
  uint64_t estimates = 0;
  uint64_t cold_starts = 0;
  size_t tracked_keys = 0;
};

class EstimatedTtlPolicy : public TtlPolicy {
 public:
  // Target probability that the object is written before its TTL expires.
  // Deliberately optimistic: under sketch coherence a too-long TTL costs a
  // sketch entry and a revalidation, never a stale read, so TTLs should
  // err long (the paper's architectural argument).
  static constexpr double kInvalidationBudget = 0.5;
  // EWMA smoothing of inter-write gaps: the weight of the newest gap.
  static constexpr double kEwmaWeight = 0.2;
  // Floor of an estimated TTL.
  static constexpr Duration kMinTtl = Duration::Seconds(5);
  // TTL of a key seen written fewer than twice, which has no gap yet.
  static constexpr Duration kColdStartTtl = Duration::Seconds(600);
  static constexpr Duration kDefaultMaxTtl = Duration::Seconds(86400);

  // `max_ttl` caps every estimate.
  explicit EstimatedTtlPolicy(Duration max_ttl = kDefaultMaxTtl);

  Duration TtlFor(std::string_view key, SimTime now) override;
  void ObserveWrite(std::string_view key, SimTime now) override;

  const EstimatorStats& stats() const { return stats_; }

  // Current mean inter-write estimate for a key; 0 when unknown.
  Duration EstimatedGap(std::string_view key) const;

 private:
  struct KeyState {
    SimTime last_write;
    double ewma_gap_us = 0;  // 0 until two writes seen
    uint32_t writes = 0;
  };

  Duration max_ttl_;
  std::unordered_map<std::string, KeyState> keys_;
  EstimatorStats stats_;
};

}  // namespace speedkit::ttl

#endif  // SPEEDKIT_TTL_TTL_POLICY_H_
