// The invalidation pipeline — the invalidation-based half of the polyglot
// architecture.
//
// Subscribed to the origin store's write feed, a write triggers, for every
// affected cache key (the record's own URL plus every cached query result
// whose result set the write changes, as its QueryMatcher reports):
//
//   1. CDN purge fan-out: one purge per edge, each landing after a sampled
//      propagation delay (real purge APIs are asynchronous and jittery);
//   2. a Cache Sketch report with the key's stale horizon from the
//      ExpiryBook — the sketch keeps warning clients until the last
//      outstanding copy's TTL has run out.
//
// Purge-propagation latency (write time -> last edge clean) is recorded
// per key into a histogram; E6 sweeps it against load.
#ifndef SPEEDKIT_INVALIDATION_PIPELINE_H_
#define SPEEDKIT_INVALIDATION_PIPELINE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cdn.h"
#include "coherence/protocol.h"
#include "common/histogram.h"
#include "common/random.h"
#include "invalidation/expiry_book.h"
#include "obs/trace.h"
#include "invalidation/query_matcher.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/fault_schedule.h"
#include "storage/object_store.h"

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
  uint64_t purges_delayed = 0;    // delivery took the schedule's slow path

  PipelineStats& operator+=(const PipelineStats& other) {
    writes_seen += other.writes_seen;
    keys_invalidated += other.keys_invalidated;
    purges_scheduled += other.purges_scheduled;
    purges_effective += other.purges_effective;
    purges_dropped += other.purges_dropped;
    purges_delayed += other.purges_delayed;
    return *this;
  }
};

class InvalidationPipeline {
 public:
  InvalidationPipeline(const PipelineConfig& config, sim::SimClock* clock,
                       sim::EventQueue* events, cache::Cdn* cdn,
                       coherence::CoherenceProtocol* coherence, Pcg32 rng);

  // Registers this pipeline on the store's write feed. Call once.
  void AttachTo(storage::ObjectStore* store);

  // Watches a query whose cached result lives under `cache_key`.
  Status WatchQuery(Query query, std::string cache_key);

  // Direct entry point (also used by tests without a store).
  void OnWrite(const storage::Record* before, const storage::Record& after);

  // Points the pipeline at an externally-owned ExpiryBook — typically the
  // origin server's, which is the component that actually observes what
  // freshness deadlines were handed out. Without this, the pipeline only
  // knows purge-propagation horizons and sketch entries would expire while
  // client copies are still live, breaking the Δ-atomicity bound.
  void UseExpiryBook(ExpiryBook* book) { expiry_book_ = book; }

  // Attaches the stack's fault schedule (not owned; may be nullptr).
  // Purge deliveries are then subject to loss and slow-path delay; the
  // sketch horizon still covers unpurged copies because it takes the
  // ExpiryBook's latest handed-out deadline — this is the mechanism E14
  // stresses. A schedule with zero purge probabilities draws no RNG.
  void SetFaultSchedule(const sim::FaultSchedule* faults) { faults_ = faults; }

  // Attaches the stack's tracer (not owned; may be null = off). Each
  // invalidated key then emits one `purge`-kind trace whose spans are the
  // per-edge deliveries (offset 0, duration = propagation delay; dropped
  // deliveries get a zero-length marker span).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  ExpiryBook& expiry_book() { return *expiry_book_; }
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
  Pcg32 rng_;
  const sim::FaultSchedule* faults_ = nullptr;
  obs::Tracer* tracer_ = nullptr;

  QueryMatcher matcher_;
  std::unordered_map<std::string, std::string> query_cache_keys_;
  ExpiryBook own_expiry_book_;
  ExpiryBook* expiry_book_ = &own_expiry_book_;

  PipelineStats stats_;
  Histogram propagation_latency_us_;
};

// Default key convention shared with the origin server.
std::string RecordCacheKey(std::string_view record_id);
std::string QueryCacheKey(std::string_view query_id);

}  // namespace speedkit::invalidation

#endif  // SPEEDKIT_INVALIDATION_PIPELINE_H_
