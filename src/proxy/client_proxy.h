// The Speed Kit client proxy — the Service Worker analogue.
//
// Intercepts every request the (simulated) page makes and implements the
// paper's request flow:
//
//   1. refresh the Cache Sketch snapshot if it is older than Δ (blocking,
//      so the staleness bound below holds unconditionally);
//   2. look up the browser cache; a fresh hit is served ONLY if the sketch
//      does not flag the key — a flagged key forces a revalidation that
//      bypasses every shared cache on the way to the origin;
//   3. otherwise fetch through the client's CDN edge (fresh edge hits are
//      served from the edge; stale edge entries revalidate at the origin
//      with their validator);
//   4. if the origin is down and offline mode is on, serve the most recent
//      browser copy even if expired (availability over freshness).
//
// Degraded-mode decision order (fault injection, E14): every network hop
// is subject to timeouts with bounded exponential-backoff retries; when
// the edge path stays unreachable the request reroutes to pass-through
// against the original site; when the upstream fails during an edge
// revalidation the stale edge copy is served (stale-if-error); when the
// origin itself is unreachable the offline cache is the last resort.
//
// Δ-atomicity: a value written at time W can only be served from a cache
// after W if the client's snapshot predates W; snapshots are at most Δ old
// at check time, so no read observes data overwritten more than
// Δ + (purge propagation) ago.
//
// GDPR: user-scoped blocks are joined on-device (template + PII vault);
// every request that leaves the device first passes the BoundaryAuditor.
#ifndef SPEEDKIT_PROXY_CLIENT_PROXY_H_
#define SPEEDKIT_PROXY_CLIENT_PROXY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cdn.h"
#include "cache/http_cache.h"
#include "coherence/protocol.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/sim_time.h"
#include "obs/trace.h"
#include "http/message.h"
#include "origin/origin_server.h"
#include "personalization/dynamic_block.h"
#include "personalization/pii.h"
#include "personalization/segmentation.h"
#include "sim/clock.h"
#include "sim/network.h"
#include "sketch/client_sketch.h"

namespace speedkit::proxy {

enum class ServedFrom {
  kBrowserCache,
  kEdgeCache,
  kOrigin,
  kOfflineCache,  // stale browser copy served during an origin outage
  kError,
};

std::string_view ServedFromName(ServedFrom source);

struct FetchResult {
  http::HttpResponse response;
  Duration latency = Duration::Zero();
  ServedFrom source = ServedFrom::kError;
  bool revalidated = false;    // a conditional round trip happened
  bool sketch_bypass = false;  // the sketch forced this to the network
};

struct BlockResult {
  std::string content;
  Duration latency = Duration::Zero();
  ServedFrom source = ServedFrom::kError;
  bool rendered_on_device = false;  // GDPR-mode local join happened
};

// One multi-key read-only transaction (FetchTxn). All reads issue at the
// same sim instant; what "consistent" means depends on the stack's
// coherence mode — Δ-atomic forces a snapshot refresh at the txn instant,
// serializable validates read versions against the origin and retries
// mismatches, fixed-TTL does neither (its anomaly rate is the baseline).
struct TxnResult {
  std::vector<FetchResult> reads;
  Duration latency = Duration::Zero();
  int retries = 0;      // validation rounds that re-fetched at least one key
  bool aborted = false; // serializable only: retry budget exhausted
};

// Whether a client checks a Cache Sketch is not configured here: an
// enabled proxy keeps one exactly when its coherence tier does (see
// ProxyDeps::coherence).
struct ProxyConfig {
  bool enabled = true;      // false: vanilla browser (cache + origin only)
  bool use_cdn = true;
  bool gdpr_mode = true;    // user blocks via on-device join
  bool offline_mode = true;
  // Serve TTL-expired (but sketch-clean) copies instantly and revalidate
  // in the background. Safe under a sketch: a genuinely changed key is
  // flagged and never takes this path, so the stack's default turns it on
  // only when the coherence tier keeps one.
  bool stale_while_revalidate = true;
  // Rewrite /assets/ requests to the optimized variant (skopt=1): fewer
  // bytes per asset via the acceleration service's transcoding.
  bool optimize_assets = true;
  size_t browser_cache_bytes = 50u * 1024 * 1024;
  // Service-worker interception cost per request on the device.
  Duration device_overhead = Duration::Micros(300);
};

// Per-client request accounting. Every request the page makes lands in
// exactly one serve-source bucket, so the reconciliation invariant
//
//   browser_hits + swr_serves + edge_hits + origin_fetches
//     + offline_serves + errors == requests
//
// holds at all times (see ServedTotal()). Traffic caused by background
// SWR revalidations is tracked in the background_* fields only — it has
// no matching `requests` increment by design.
struct ProxyStats {
  uint64_t requests = 0;
  uint64_t browser_hits = 0;
  uint64_t edge_hits = 0;      // served via the edge (fresh hit or 304)
  uint64_t origin_fetches = 0;
  uint64_t revalidations_304 = 0;
  uint64_t revalidations_200 = 0;
  uint64_t sketch_bypasses = 0;
  uint64_t offline_serves = 0;
  uint64_t errors = 0;
  uint64_t sketch_refreshes = 0;
  uint64_t sketch_bytes = 0;
  uint64_t swr_serves = 0;  // stale served while revalidating in background
  uint64_t bytes_from_browser_cache = 0;
  uint64_t bytes_over_network = 0;

  // Degraded-mode accounting. Like sketch_bypasses these annotate requests
  // that still land in exactly one serve bucket above, so ServedTotal()
  // keeps reconciling: a timed-out request that eventually got through is
  // an edge_hit/origin_fetch, a rerouted one an origin_fetch/offline/error.
  uint64_t timeouts = 0;         // attempts the network never delivered
  uint64_t retries = 0;          // re-attempts after a timeout
  uint64_t fallback_serves = 0;  // served via a degraded path: pass-through
                                 // reroute, stale-if-error at the edge, or
                                 // an offline copy after a failed reroute

  // Background (stale-while-revalidate) traffic, off the request path.
  uint64_t background_revalidations = 0;  // revalidations launched
  uint64_t background_304s = 0;           // ... answered with a 304
  uint64_t background_200s = 0;           // ... answered with a full body
  uint64_t background_errors = 0;         // ... failed (origin down etc.)
  uint64_t background_bytes = 0;          // wire bytes of background traffic

  // Validation traffic of multi-key read-only transactions (FetchTxn),
  // serializable mode only. Each member read is an ordinary request and
  // lands in the serve buckets above; each transaction's outcome, retries
  // and latency are in its TxnResult.
  uint64_t txn_validations = 0;       // validation RTTs issued
  uint64_t txn_validation_bytes = 0;  // wire bytes of validation traffic

  // Client-observed latency distributions (us), filled unconditionally so
  // every harness gets a per-tier breakdown whether or not the obs layer
  // is on. Each request lands in exactly ONE tier histogram — keyed by its
  // serve bucket, with SWR serves under `browser` (that is the cache that
  // answered) — and in exactly one of ok/degraded: `degraded` means some
  // fault-handling path (timeout, retry, reroute, stale-if-error, offline)
  // fired on the way, whatever tier finally served. Recording draws no
  // randomness, so the histograms cannot perturb seeded runs.
  Histogram latency_browser_us;
  Histogram latency_edge_us;
  Histogram latency_origin_us;
  Histogram latency_offline_us;
  Histogram latency_error_us;
  Histogram latency_ok_us;
  Histogram latency_degraded_us;

  // The tier histogram for `source` (see above; never null).
  Histogram* LatencyFor(ServedFrom source) {
    switch (source) {
      case ServedFrom::kBrowserCache: return &latency_browser_us;
      case ServedFrom::kEdgeCache: return &latency_edge_us;
      case ServedFrom::kOrigin: return &latency_origin_us;
      case ServedFrom::kOfflineCache: return &latency_offline_us;
      case ServedFrom::kError: return &latency_error_us;
    }
    return &latency_error_us;
  }

  // Sum of the per-source serve counts; equals `requests` when the
  // accounting reconciles.
  uint64_t ServedTotal() const {
    return browser_hits + swr_serves + edge_hits + origin_fetches +
           offline_serves + errors;
  }

  // Field-wise accumulation — the single place that knows every counter
  // AND histogram, used by traffic aggregation, trace replay and the
  // multi-seed merge (dropping a field here silently corrupts every
  // aggregated table, so new stats must be added to both lists).
  ProxyStats& operator+=(const ProxyStats& other) {
    requests += other.requests;
    browser_hits += other.browser_hits;
    edge_hits += other.edge_hits;
    origin_fetches += other.origin_fetches;
    revalidations_304 += other.revalidations_304;
    revalidations_200 += other.revalidations_200;
    sketch_bypasses += other.sketch_bypasses;
    offline_serves += other.offline_serves;
    errors += other.errors;
    sketch_refreshes += other.sketch_refreshes;
    sketch_bytes += other.sketch_bytes;
    swr_serves += other.swr_serves;
    bytes_from_browser_cache += other.bytes_from_browser_cache;
    bytes_over_network += other.bytes_over_network;
    timeouts += other.timeouts;
    retries += other.retries;
    fallback_serves += other.fallback_serves;
    background_revalidations += other.background_revalidations;
    background_304s += other.background_304s;
    background_200s += other.background_200s;
    background_errors += other.background_errors;
    background_bytes += other.background_bytes;
    txn_validations += other.txn_validations;
    txn_validation_bytes += other.txn_validation_bytes;
    latency_browser_us.Merge(other.latency_browser_us);
    latency_edge_us.Merge(other.latency_edge_us);
    latency_origin_us.Merge(other.latency_origin_us);
    latency_offline_us.Merge(other.latency_offline_us);
    latency_error_us.Merge(other.latency_error_us);
    latency_ok_us.Merge(other.latency_ok_us);
    latency_degraded_us.Merge(other.latency_degraded_us);
    return *this;
  }
};

// Everything a proxy needs from the surrounding stack, by name. The stack
// (or a test fixture) fills one of these once and hands it to every client
// it creates — adding a dependency grows this struct instead of every
// constructor call site. `clock`, `network` and `origin` are required;
// `cdn` may be null when use_cdn is false; `auditor` and `tracer` are
// optional observers. None are owned.
struct ProxyDeps {
  sim::SimClock* clock = nullptr;
  sim::Network* network = nullptr;
  cache::Cdn* cdn = nullptr;
  origin::OriginServer* origin = nullptr;
  // The stack's coherence tier. When it keeps a sketch (Δ-atomic mode) an
  // enabled client holds its own sketch::ClientSketch, refreshed from the
  // tier's publication every CoherenceConfig::delta; in serializable mode
  // FetchTxn validates against it. May be null: the client then has no
  // sketch and FetchTxn behaves as fixed-TTL.
  coherence::CoherenceProtocol* coherence = nullptr;
  personalization::BoundaryAuditor* auditor = nullptr;
  obs::Tracer* tracer = nullptr;
  // Optional shared accounting sink. When set, the client records into it
  // directly instead of allocating its own ProxyStats (~600 B + lazy
  // histograms per client) — the fleet-scale mode, where only the
  // aggregate is ever read. Counter increments are identical either way,
  // and integer-valued histogram sums are exact, so an aggregated sink is
  // bit-identical to summing per-client stats afterwards. Must outlive
  // the client; per-client stats() is meaningless in sink mode.
  ProxyStats* stats_sink = nullptr;
};

class ClientProxy {
 public:
  ClientProxy(const ProxyConfig& config, uint64_t client_id,
              const ProxyDeps& deps);

  // Fetches one resource through the full decision flow (including the
  // asset-optimization rewrite). Each call is one foreground request:
  // traced, and recorded in exactly one serve bucket.
  FetchResult Fetch(const http::Url& url);
  FetchResult Fetch(std::string_view url_text);

  // A multi-key read-only transaction: fetches every URL at the current
  // sim instant and applies the coherence mode's consistency mechanism —
  // Δ-atomic refreshes the sketch snapshot first (reads then cut one
  // consistent Δ-boundary picture), serializable validates read versions
  // against the origin and re-fetches mismatches (bypassing shared caches)
  // up to CoherenceConfig::max_txn_retries rounds before aborting,
  // fixed-TTL just reads.
  // Each member read counts as a normal request in ProxyStats.
  TxnResult FetchTxn(const std::vector<std::string>& urls);

  // Fetches/renders one dynamic block of a page for the attached user.
  BlockResult FetchBlock(const personalization::PageTemplate& page,
                         const personalization::DynamicBlock& block,
                         const personalization::Segmenter& segmenter);

  // Attaches the device's PII vault (required for user-scoped blocks).
  void AttachVault(const personalization::PiiVault* vault) { vault_ = vault; }

  // Thaws a spilled cache on access: callers always see a live HttpCache.
  cache::HttpCache& browser_cache() {
    EnsureThawed();
    return browser_cache_;
  }
  // In sink mode (ProxyDeps::stats_sink set) this is the shared aggregate,
  // not this client's own traffic.
  const ProxyStats& stats() const { return *stats_; }
  uint64_t client_id() const { return client_id_; }
  const ProxyConfig& config() const { return config_; }

  // Cold-client spill: serializes the browser cache into a compact blob
  // plus lists of body and header-block handles, and releases the live
  // structure (entries, LRU list, hash table). The bodies and header
  // blocks stay shared with every other cache holding them; the blob
  // records indexes into the handle lists. The next request — or any
  // browser_cache() access — rehydrates it losslessly (contents, recency
  // order, stats, the very same buffers and blocks). A no-op
  // when already frozen or the cache is empty (an empty live cache is
  // cheaper than a blob). Safe at any quiescent point: the proxy touches
  // the cache only synchronously inside Fetch/FetchBlock, never from
  // scheduled events.
  void FreezeBrowserCache();
  bool browser_cache_frozen() const { return browser_cache_frozen_; }
  // Blob plus handle-list capacity (0 while live) — what a spilled
  // client keeps resident instead of the full cache structure. The shared
  // bodies and header blocks are not charged here.
  size_t frozen_bytes() const {
    if (!browser_cache_frozen_) return 0;
    return frozen_browser_cache_.capacity() + frozen_handles_.capacity_bytes();
  }
  // The spilled blob (empty while live).
  const std::string& frozen_blob() const { return frozen_browser_cache_; }
  // Simulated time of this client's last foreground activity; idle-spill
  // sweeps compare against it.
  SimTime last_active() const { return last_active_; }
  uint64_t freeze_count() const { return freezes_; }
  uint64_t thaw_count() const { return thaws_; }

 private:
  // The decision flow proper, after any URL rewriting.
  FetchResult FetchDecide(const http::Url& url);

  // Starts a foreground request's trace; no-op while tracing is off.
  void BeginTrace(std::string_view url) {
    if (trace_ != nullptr) {
      trace_->Begin(tracer_, obs::kTraceKindRequest, url, clock_->Now());
    }
  }

  // Adds a span to the current request's trace; no-op while tracing is
  // off or a background revalidation is in flight (its legs must not
  // pollute the foreground request's tree).
  void TraceSpan(std::string_view name, std::string_view tier,
                 Duration duration) {
    if (trace_ != nullptr && !background_fetch_) {
      trace_->AddSpan(name, tier, duration);
    }
  }

  // Marks the current foreground request as degraded (a fault-handling
  // path fired). Background traffic never flips the flag.
  void NoteFaultOnRequest() {
    if (!background_fetch_) request_degraded_ = true;
  }

  // Final per-request accounting: one tier histogram + ok/degraded split
  // + trace finish. The single funnel every foreground request exits by.
  void RecordRequestOutcome(const FetchResult& result);

  // One network fetch (request already carries any validator). When
  // `bypass_shared` is set, edge caches are passed through, not consulted.
  // Dispatches to the edge path when it is reachable, else reroutes to
  // the direct-origin path (degraded-mode fallback).
  FetchResult FetchOverNetwork(const http::HttpRequest& request,
                               const std::string& key, bool bypass_shared);

  // The accelerated path through the client's CDN edge. `burned` carries
  // latency already spent on failed attempts (timeouts, backoff). The edge
  // answers a fresh hit from its copy; a stale copy, a miss and a
  // sketch-flagged request share one upstream round trip to the origin.
  FetchResult FetchViaEdge(const http::HttpRequest& request,
                           const std::string& key, bool bypass_shared,
                           int edge_index, Duration burned);

  // Serves a response the edge answers from its own copy (a fresh hit, a
  // cache-minted 304, or a stale copy under stale-if-error): charges the
  // client<->edge leg for what the client gets, adds `span` and the leg's
  // span, and finishes the request.
  FetchResult ServeEdgeCopy(const http::HttpRequest& request,
                            const std::string& key,
                            const http::HttpResponse& resp,
                            std::string_view span, Duration latency);

  // Pass-through against the original site (no CDN).
  FetchResult FetchDirect(const http::HttpRequest& request,
                          const std::string& key, Duration burned);

  // Tries to get one request across `link`: a timeout costs
  // kRequestTimeout, each retry adds exponential backoff with jitter.
  // Failed-attempt time accumulates into `latency`; the successful
  // attempt's own RTT is charged by the caller as usual. Returns false
  // when all attempts fail.
  bool DeliverWithRetries(sim::Link link, Duration* latency);

  // Handles the client-side outcome of a network response, foreground or
  // background: 304 -> refresh and serve the stored body; 2xx -> store
  // and serve; else error.
  FetchResult FinishClientResponse(const http::HttpRequest& request,
                                   const std::string& key,
                                   const http::HttpResponse& resp,
                                   ServedFrom source, Duration latency);

  // Origin unreachable: serve a (possibly stale) browser copy if allowed.
  FetchResult OfflineFallback(const std::string& key,
                              Duration attempt_latency);

  FetchResult ServeFromEntry(const cache::CacheEntry& entry,
                             ServedFrom source, Duration latency);

  // Refreshes the sketch snapshot if due; returns the added latency. Call
  // only with a sketch. A request's snapshot is due after Δ; at
  // `txn_begin` any nonzero age is due, because only a snapshot taken at
  // the transaction's own instant proves none of its reads is stale.
  Duration MaybeRefreshSketchLatency(bool txn_begin);

  // Serializable validation loop (see FetchTxn). Returns false when the
  // transaction must abort; accumulates validation + re-fetch latency
  // onto `txn`.
  bool ValidateTxn(const std::vector<std::string>& urls, TxnResult* txn);

  // One retry re-fetch of a stale transaction read: a full foreground
  // request (counted, traced) that bypasses every shared cache so it
  // cannot re-read the same stale copy.
  FetchResult TxnRefetch(const http::Url& url, const std::string& key);

  void Audit(const http::HttpRequest& request);

  // Rehydrates a frozen browser cache before any use of browser_cache_.
  void EnsureThawed();
  // Stamps foreground activity (thaw + last_active_) on request entry.
  void Touch();

  ProxyConfig config_;
  uint64_t client_id_;
  sim::SimClock* clock_;
  sim::Network* network_;
  cache::Cdn* cdn_;
  origin::OriginServer* origin_;
  personalization::BoundaryAuditor* auditor_;
  const personalization::PiiVault* vault_ = nullptr;

  cache::HttpCache browser_cache_;
  // The stack's coherence tier (may be null) and this client's view of its
  // sketch: present only when the proxy is enabled and the tier keeps a
  // sketch. Every request refreshes it when due and checks its key in it.
  coherence::CoherenceProtocol* coherence_;
  std::optional<sketch::ClientSketch> sketch_;
  // Drives retry-backoff jitter only. Seeded from the client id — not the
  // stack's stream — so attaching fault handling does not perturb any
  // pre-existing draw sequence (network latencies, traffic).
  Pcg32 rng_;
  // Allocated only when no shared sink was provided; stats_ then points at
  // it. In sink mode the client carries just the pointer.
  std::unique_ptr<ProxyStats> own_stats_;
  ProxyStats* stats_;

  // Cold-client spill state (see FreezeBrowserCache).
  std::string frozen_browser_cache_;
  cache::FrozenHandles frozen_handles_;
  SimTime last_active_;
  uint64_t freezes_ = 0;
  uint64_t thaws_ = 0;

  // Observability: ProxyDeps::tracer, not owned. With a tracer the client
  // emits one RequestTrace per foreground request, so the trace count
  // equals ServedTotal(); tracing records only durations the proxy already
  // computed, so it cannot change behavior (enforced by tests/obs). The
  // builder exists only while tracing: null = off, and every trace call is
  // then one branch that builds nothing.
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<obs::TraceBuilder> trace_;

  // Three flags, kept together so they share one word of the object.
  // True while the browser cache lives in the spill state above.
  bool browser_cache_frozen_ = false;
  // True while an SWR background revalidation is in flight: its network
  // outcome must land in the background_* counters, not the per-request
  // serve buckets.
  bool background_fetch_ = false;
  // A fault-handling path fired during the current foreground request.
  bool request_degraded_ = false;
};

}  // namespace speedkit::proxy

#endif  // SPEEDKIT_PROXY_CLIENT_PROXY_H_
