#include "ttl/ttl_policy.h"

#include <algorithm>
#include <cmath>

namespace speedkit::ttl {
namespace {

// t* = kTtlFactor * mean inter-write gap (see the header's model).
const double kTtlFactor =
    -std::log(1.0 - EstimatedTtlPolicy::kInvalidationBudget);

}  // namespace

EstimatedTtlPolicy::EstimatedTtlPolicy(Duration max_ttl) : max_ttl_(max_ttl) {}

Duration EstimatedTtlPolicy::TtlFor(std::string_view key, SimTime now) {
  (void)now;
  stats_.estimates++;
  auto it = keys_.find(std::string(key));
  if (it == keys_.end() || it->second.ewma_gap_us <= 0) {
    stats_.cold_starts++;
    return kColdStartTtl;
  }
  double ttl_us = kTtlFactor * it->second.ewma_gap_us;
  ttl_us = std::clamp(ttl_us, static_cast<double>(kMinTtl.micros()),
                      static_cast<double>(max_ttl_.micros()));
  return Duration::Micros(static_cast<int64_t>(ttl_us));
}

void EstimatedTtlPolicy::ObserveWrite(std::string_view key, SimTime now) {
  auto [it, inserted] = keys_.emplace(std::string(key), KeyState{});
  KeyState& state = it->second;
  if (!inserted && state.writes > 0) {
    double gap = static_cast<double>((now - state.last_write).micros());
    if (gap > 0) {
      if (state.ewma_gap_us <= 0) {
        state.ewma_gap_us = gap;
      } else {
        state.ewma_gap_us =
            kEwmaWeight * gap + (1.0 - kEwmaWeight) * state.ewma_gap_us;
      }
    }
  }
  state.last_write = now;
  state.writes++;
  stats_.tracked_keys = keys_.size();
}

Duration EstimatedTtlPolicy::EstimatedGap(std::string_view key) const {
  auto it = keys_.find(std::string(key));
  if (it == keys_.end() || it->second.ewma_gap_us <= 0) {
    return Duration::Zero();
  }
  return Duration::Micros(static_cast<int64_t>(it->second.ewma_gap_us));
}

}  // namespace speedkit::ttl
