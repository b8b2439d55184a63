// The one publication surface of the server-side Cache Sketch.
//
// Every snapshot leaves the sketch through this handle, owned by the
// coherence protocol object: the origin's /sketch route serializes through
// it and clients refresh through it. Both calls read the same memoized
// publication (one rebuild per key-set mutation, shared immutable views).
//
// A handle over a null sketch publishes a constant empty filter — the
// behavior baselines without sketch coherence always had.
#ifndef SPEEDKIT_COHERENCE_SKETCH_PUBLICATION_H_
#define SPEEDKIT_COHERENCE_SKETCH_PUBLICATION_H_

#include <memory>
#include <string>

#include "common/sim_time.h"
#include "sketch/cache_sketch.h"
#include "sketch/client_sketch.h"

namespace speedkit::coherence {

class SketchPublication {
 public:
  // `sketch` may be null (no sketch coherence): the publication is then a
  // constant empty filter, built once per process. Not owned.
  explicit SketchPublication(sketch::CacheSketch* sketch) : sketch_(sketch) {}

  // Serialized snapshot bytes (what the /sketch route returns), published
  // as an immutable shared string: between sketch mutations every caller
  // receives the same memoized buffer instead of a fresh serialization.
  std::shared_ptr<const std::string> Serialized(SimTime now);

  // Installs the fleet-shared published filter into `client` and returns
  // the wire bytes the serialized form costs, so transfer accounting
  // matches a byte-level refresh exactly.
  size_t InstallInto(sketch::ClientSketch* client, SimTime now);

 private:
  const sketch::CacheSketch::Publication& Publish(SimTime now);

  sketch::CacheSketch* sketch_;
};

}  // namespace speedkit::coherence

#endif  // SPEEDKIT_COHERENCE_SKETCH_PUBLICATION_H_
