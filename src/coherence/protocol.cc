#include "coherence/protocol.h"

namespace speedkit::coherence {

CoherenceProtocol::CoherenceProtocol(const CoherenceConfig& config)
    : config_(config),
      sketch_(config.mode == CoherenceMode::kDeltaAtomic
                  ? std::make_unique<sketch::CacheSketch>()
                  : nullptr),
      publication_(sketch_.get()) {}

std::vector<size_t> CoherenceProtocol::StaleReadIndexes(
    const std::vector<ReadVersion>& reads) const {
  std::vector<size_t> stale;
  for (size_t i = 0; i < reads.size(); ++i) {
    auto head = staleness_.CurrentVersion(reads[i].key);
    // A key the authority never saw written cannot mismatch; version 0
    // reads of written keys predate the first write and always mismatch.
    if (head.has_value() && *head != reads[i].version) stale.push_back(i);
  }
  return stale;
}

}  // namespace speedkit::coherence
