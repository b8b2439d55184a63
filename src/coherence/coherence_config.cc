#include "coherence/coherence_config.h"

namespace speedkit::coherence {

std::string_view CoherenceModeName(CoherenceMode mode) {
  switch (mode) {
    case CoherenceMode::kDeltaAtomic:
      return "delta_atomic";
    case CoherenceMode::kSerializable:
      return "serializable";
    case CoherenceMode::kFixedTtl:
      return "fixed_ttl";
  }
  return "unknown";
}

Status ParseCoherenceMode(std::string_view text, CoherenceMode* out) {
  if (text == "delta_atomic") {
    *out = CoherenceMode::kDeltaAtomic;
    return Status::Ok();
  }
  if (text == "serializable") {
    *out = CoherenceMode::kSerializable;
    return Status::Ok();
  }
  if (text == "fixed_ttl") {
    *out = CoherenceMode::kFixedTtl;
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "unknown coherence mode (expected delta_atomic, serializable or "
      "fixed_ttl)");
}

Status CoherenceConfig::Validate() const {
  if (delta <= Duration::Zero()) {
    return Status::InvalidArgument("delta (sketch refresh interval) must be "
                                   "positive");
  }
  if (max_txn_retries < 0) {
    return Status::InvalidArgument("max_txn_retries must be >= 0");
  }
  return Status::Ok();
}

}  // namespace speedkit::coherence
