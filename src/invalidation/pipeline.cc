#include "invalidation/pipeline.h"

#include <algorithm>
#include <memory>

namespace speedkit::invalidation {

std::string RecordCacheKey(std::string_view record_id) {
  return "https://shop.example.com/api/records/" + std::string(record_id);
}

std::string QueryCacheKey(std::string_view query_id) {
  return "https://shop.example.com/api/queries/" + std::string(query_id);
}

InvalidationPipeline::InvalidationPipeline(
    const PipelineConfig& config, sim::SimClock* clock,
    sim::EventQueue* events, cache::Cdn* cdn,
    coherence::CoherenceProtocol* coherence, const ExpiryBook* expiry_book,
    Pcg32 rng)
    : config_(config),
      clock_(clock),
      events_(events),
      cdn_(cdn),
      coherence_(coherence),
      expiry_book_(expiry_book),
      rng_(rng) {}

Status InvalidationPipeline::WatchQuery(const Query& query,
                                        const std::string& cache_key) const {
  if (cache_key == QueryCacheKey(query.id)) return Status::Ok();
  return Status::InvalidArgument("query results live at QueryCacheKey(id)");
}

void InvalidationPipeline::OnWrite(
    const std::string& record_key,
    const std::vector<std::string>& matched_query_ids) {
  stats_.writes_seen++;
  std::vector<std::string> keys{record_key};
  for (const std::string& id : matched_query_ids) {
    keys.push_back(QueryCacheKey(id));
  }
  // Key order fixes the order of the purge-delay draws.
  std::sort(keys.begin(), keys.end());
  for (const std::string& key : keys) InvalidateKey(key);
}

void InvalidationPipeline::InvalidateKey(const std::string& key) {
  stats_.keys_invalidated++;
  SimTime now = clock_->Now();

  // One `purge`-kind trace per invalidated key; deliveries fan out in
  // parallel so spans share offset 0. Recording happens strictly after
  // every RNG draw for an edge, so tracing cannot perturb the stream.
  obs::TraceBuilder trace;
  trace.Begin(tracer_, obs::kTraceKindPurge, key, now);
  bool faulted = false;

  // Purge fan-out: each edge cleans up after its own propagation delay.
  // The key stays in the sketch until the *later* of (a) the last
  // outstanding client copy's TTL and (b) purge completion, because an
  // unpurged edge can re-serve the stale copy to a fresh client.
  SimTime last_purge = now;
  if (cdn_ != nullptr) {
    // A probability of 0 must not touch the RNG: an attached-but-quiet
    // fault schedule reproduces the faultless run bit-for-bit.
    auto chance = [this](double p) { return p > 0 && rng_.WithProbability(p); };
    std::shared_ptr<const std::string> shared_key;
    for (int i = 0; i < cdn_->num_edges(); ++i) {
      stats_.purges_scheduled++;
      if (faults_ != nullptr && chance(faults_->purge_loss_probability())) {
        // Delivery lost in flight. The edge keeps its stale copy until the
        // copy's own TTL runs out — which the sketch horizon covers via
        // the ExpiryBook, so Δ-atomicity survives (at the cost of longer
        // forced revalidation).
        stats_.purges_dropped++;
        cdn_->NotePurgeDropped(i);
        faulted = true;
        if (trace.active()) {
          trace.AddSpanAt("purge.dropped." + std::to_string(i),
                          obs::kTierEdge, Duration::Zero(), Duration::Zero());
        }
        continue;
      }
      double jitter = config_.purge_log_sigma > 0
                          ? rng_.LogNormal(0.0, config_.purge_log_sigma)
                          : 1.0;
      Duration delay = Duration::Micros(static_cast<int64_t>(
          config_.purge_median_delay.micros() * jitter));
      if (faults_ != nullptr && chance(faults_->purge_delay_probability())) {
        delay = delay * faults_->purge_delay_factor();
        stats_.purges_delayed++;
        cdn_->NotePurgeDelayed(i);
        faulted = true;
      }
      cdn_->NotePurgeScheduled(i, delay);
      if (trace.active()) {
        trace.AddSpanAt("purge.deliver." + std::to_string(i), obs::kTierEdge,
                        Duration::Zero(), delay);
      }
      SimTime at = now + delay;
      last_purge = std::max(last_purge, at);
      // Every edge's event shares one immutable copy of the key.
      if (shared_key == nullptr) {
        shared_key = std::make_shared<const std::string>(key);
      }
      int edge = i;
      auto purge = [this, edge, shared_key]() {
        if (cdn_->PurgeEdge(edge, *shared_key)) stats_.purges_effective++;
      };
      static_assert(sizeof(purge) <= 64, "purge events must stay inline");
      events_->At(at, std::move(purge));
    }
    propagation_latency_us_.Add((last_purge - now).micros());
  }
  trace.Finish(obs::kTierPurge, /*status=*/0, faulted, last_purge - now);

  if (coherence_ != nullptr && coherence_->WantsInvalidations()) {
    SimTime stale_until =
        std::max(expiry_book_->LatestExpiry(key, now), last_purge);
    coherence_->OnInvalidation(key, stale_until, now);
  }
}

}  // namespace speedkit::invalidation
