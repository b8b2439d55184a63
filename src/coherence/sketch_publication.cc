#include "coherence/sketch_publication.h"

namespace speedkit::coherence {

namespace {

// The null-sketch publication, built once per process: a 64-bit empty
// filter is always representable, so Serialize cannot fail.
const sketch::CacheSketch::Publication& EmptyPublication() {
  static const sketch::CacheSketch::Publication kEmpty{
      std::make_shared<const std::string>(
          sketch::BloomFilter(64, 1).Serialize().value()),
      std::make_shared<const sketch::BloomFilter>(64, 1)};
  return kEmpty;
}

}  // namespace

const sketch::CacheSketch::Publication& SketchPublication::Publish(
    SimTime now) {
  return sketch_ == nullptr ? EmptyPublication() : sketch_->Publish(now);
}

std::shared_ptr<const std::string> SketchPublication::Serialized(SimTime now) {
  return Publish(now).bytes;
}

size_t SketchPublication::InstallInto(sketch::ClientSketch* client,
                                      SimTime now) {
  const sketch::CacheSketch::Publication& pub = Publish(now);
  client->Install(pub.filter, now);
  return pub.bytes->size();
}

}  // namespace speedkit::coherence
