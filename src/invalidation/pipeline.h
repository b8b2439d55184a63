// The invalidation pipeline — the invalidation-based half of the polyglot
// architecture.
//
// The origin server hands it each write's record key and the ids of the
// queries its QueryMatcher found the write affects. For every affected
// cache key (the record's own URL plus QueryCacheKey(id) of every matched
// query) the pipeline triggers:
//
//   1. CDN purge fan-out: one purge per edge, each landing after a sampled
//      propagation delay (real purge APIs are asynchronous and jittery);
//   2. a Cache Sketch report with the key's stale horizon from the
//      origin's ExpiryBook — the sketch keeps warning clients until the
//      last outstanding copy's TTL has run out.
//
// Purge-propagation latency (write time -> last edge clean) is recorded
// per key into a histogram; E6 sweeps it against load.
#ifndef SPEEDKIT_INVALIDATION_PIPELINE_H_
#define SPEEDKIT_INVALIDATION_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cdn.h"
#include "coherence/protocol.h"
#include "common/histogram.h"
#include "common/random.h"
#include "invalidation/expiry_book.h"
#include "invalidation/predicate.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/fault_schedule.h"

namespace speedkit::invalidation {

struct PipelineConfig {
  // Median one-way purge propagation to an edge; jitter is lognormal.
  Duration purge_median_delay = Duration::Millis(80);
  double purge_log_sigma = 0.4;
};

struct PipelineStats {
  uint64_t writes_seen = 0;
  uint64_t keys_invalidated = 0;
  uint64_t purges_scheduled = 0;
  uint64_t purges_effective = 0;  // an edge actually held the key
  uint64_t purges_dropped = 0;    // delivery lost before reaching the edge

  PipelineStats& operator+=(const PipelineStats& other) {
    writes_seen += other.writes_seen;
    keys_invalidated += other.keys_invalidated;
    purges_scheduled += other.purges_scheduled;
    purges_effective += other.purges_effective;
    purges_dropped += other.purges_dropped;
    return *this;
  }
};

class InvalidationPipeline {
 public:
  // `expiry_book` is the origin server's: sketch horizons are sized from
  // the deadlines it handed out, so no sketch entry expires while a client
  // copy is live. It is read only when `coherence` keeps a sketch.
  // Nothing here is owned.
  InvalidationPipeline(const PipelineConfig& config, sim::SimClock* clock,
                       sim::EventQueue* events, cache::Cdn* cdn,
                       coherence::CoherenceProtocol* coherence,
                       const ExpiryBook* expiry_book, Pcg32 rng);

  // Keeps nothing (queries are registered with the origin server); checks
  // that `cache_key` is QueryCacheKey(query.id), the key a matched query
  // is invalidated under. perfbench is its last caller.
  Status WatchQuery(const Query& query, const std::string& cache_key) const;

  // One write: invalidates `record_key` and QueryCacheKey(id) for each of
  // the distinct `matched_query_ids`, in key order.
  void OnWrite(const std::string& record_key,
               const std::vector<std::string>& matched_query_ids);

  // Attaches the stack's fault schedule (not owned; may be nullptr).
  // Purge deliveries are then lost with its purge_loss_probability; the
  // sketch horizon still covers unpurged copies because it takes the
  // ExpiryBook's latest handed-out deadline — this is the mechanism E14
  // stresses. A zero purge-loss probability draws no RNG.
  void SetFaults(const sim::FaultScheduleConfig* faults) { faults_ = faults; }

  // Attaches the stack's tracer (not owned; may be null = off). Each
  // invalidated key then emits one `purge`-kind trace whose spans are the
  // per-edge deliveries (offset 0, duration = propagation delay; dropped
  // deliveries get a zero-length marker span).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  const PipelineStats& stats() const { return stats_; }
  const Histogram& propagation_latency_us() const {
    return propagation_latency_us_;
  }

 private:
  void InvalidateKey(const std::string& key);

  PipelineConfig config_;
  sim::SimClock* clock_;
  sim::EventQueue* events_;
  cache::Cdn* cdn_;
  coherence::CoherenceProtocol* coherence_;
  const ExpiryBook* expiry_book_;
  Pcg32 rng_;
  const sim::FaultScheduleConfig* faults_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  PipelineStats stats_;
  Histogram propagation_latency_us_;
};

// Default key convention shared with the origin server.
std::string RecordCacheKey(std::string_view record_id);
std::string QueryCacheKey(std::string_view query_id);

}  // namespace speedkit::invalidation

#endif  // SPEEDKIT_INVALIDATION_PIPELINE_H_
