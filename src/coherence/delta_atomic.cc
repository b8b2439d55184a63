#include "coherence/delta_atomic.h"

namespace speedkit::coherence {

DeltaAtomicProtocol::DeltaAtomicProtocol(const CoherenceConfig& config)
    : CoherenceProtocol(config, std::make_unique<sketch::CacheSketch>()) {}

void DeltaAtomicProtocol::OnInvalidation(std::string_view key,
                                         SimTime stale_until, SimTime now) {
  sketch_->ReportInvalidation(key, stale_until, now);
}

std::unique_ptr<ClientCoherence> DeltaAtomicProtocol::NewClient(
    Duration refresh_interval) {
  return std::make_unique<DeltaAtomicClient>(&publication_, refresh_interval);
}

}  // namespace speedkit::coherence
