// Typed configuration for the pluggable coherence tier.
//
// One struct collects the mode selector, Δ and the serializable mode's
// retry budget. Validation returns real errors — a bad value is a bug at
// the call site, never something to silently clamp.
#ifndef SPEEDKIT_COHERENCE_COHERENCE_CONFIG_H_
#define SPEEDKIT_COHERENCE_COHERENCE_CONFIG_H_

#include <string_view>

#include "common/sim_time.h"
#include "common/status.h"

namespace speedkit::coherence {

// The three client-visible coherence protocols a stack can run. The mode
// governs how clients decide whether a cached copy is safe to serve; the
// server-side invalidation pipeline remains a property of the system
// variant (baselines hard-wire their own coherence and ignore the mode).
enum class CoherenceMode {
  // Paper-faithful Cache Sketch: clients refresh a Bloom snapshot of
  // possibly-stale keys every Δ and bypass all shared caches for flagged
  // keys. Staleness is bounded by Δ + purge propagation.
  kDeltaAtomic,
  // Version-validated multi-key read-only transactions: reads serve from
  // caches optimistically, then one validation round trip compares the
  // read version vector against the authority; mismatched keys re-fetch
  // bypassing shared caches, and the transaction aborts after the retry
  // budget. Committed transactions see a consistent snapshot.
  kSerializable,
  // Plain expiration: no sketch, no validation — the lower baseline.
  kFixedTtl,
};

// Stable names used by --coherence flags and JSON output:
// "delta_atomic", "serializable", "fixed_ttl".
std::string_view CoherenceModeName(CoherenceMode mode);

// Parses a mode name (as printed by CoherenceModeName). On success writes
// `*out`; unknown names return InvalidArgument listing the valid set.
Status ParseCoherenceMode(std::string_view text, CoherenceMode* out);

struct CoherenceConfig {
  CoherenceMode mode = CoherenceMode::kDeltaAtomic;

  // The coherence boundary interval Δ: the client sketch refresh cadence
  // in Δ-atomic mode.
  Duration delta = Duration::Seconds(30);

  // Serializable mode: validation rounds that may re-fetch mismatched
  // keys before the transaction aborts.
  int max_txn_retries = 2;

  // Structural sanity: delta > 0, max_txn_retries >= 0.
  Status Validate() const;
};

}  // namespace speedkit::coherence

#endif  // SPEEDKIT_COHERENCE_COHERENCE_CONFIG_H_
