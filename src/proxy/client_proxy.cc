#include "proxy/client_proxy.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"

namespace speedkit::proxy {

namespace {
// Approximate wire size of a 304 (status line + validator headers).
constexpr size_t kNotModifiedWireBytes = 256;
// On-device template-join cost for a user-scoped block.
constexpr Duration kRenderOverhead = Duration::Millis(1);
// Degraded-mode handling (the paper's "reroute or fall back" rule). A
// request attempt that the network does not deliver costs a timeout, then
// up to kMaxRetries retries with exponential backoff + jitter; when the
// accelerated edge path stays unreachable the proxy falls back to
// pass-through against the original site, and when the origin itself is
// unreachable, to the offline cache.
constexpr Duration kRequestTimeout = Duration::Seconds(2);
constexpr int kMaxRetries = 2;
constexpr Duration kRetryBackoff = Duration::Millis(200);  // doubles per retry
constexpr double kRetryJitter = 0.5;  // uniform extra fraction of the backoff
// Serializable-mode validation RTT: a version-vector check is a small
// request (fixed envelope + one key/version pair per read).
constexpr size_t kTxnValidateBaseBytes = 128;
constexpr size_t kTxnValidatePerKeyBytes = 40;
}  // namespace

std::string_view ServedFromName(ServedFrom source) {
  switch (source) {
    case ServedFrom::kBrowserCache:
      return "browser";
    case ServedFrom::kEdgeCache:
      return "edge";
    case ServedFrom::kOrigin:
      return "origin";
    case ServedFrom::kOfflineCache:
      return "offline";
    case ServedFrom::kError:
      return "error";
  }
  return "error";
}

ClientProxy::ClientProxy(const ProxyConfig& config, uint64_t client_id,
                         const ProxyDeps& deps)
    : config_(config),
      client_id_(client_id),
      clock_(deps.clock),
      network_(deps.network),
      cdn_(deps.cdn),
      origin_(deps.origin),
      auditor_(deps.auditor),
      browser_cache_(/*shared=*/false, config.browser_cache_bytes),
      coherence_(deps.coherence),
      rng_(Mix64(client_id ^ 0xba0c0ffeeULL), client_id * 2 + 1),
      own_stats_(deps.stats_sink ? nullptr : new ProxyStats()),
      stats_(deps.stats_sink ? deps.stats_sink : own_stats_.get()),
      last_active_(deps.clock->Now()),
      tracer_(deps.tracer),
      trace_(deps.tracer != nullptr ? std::make_unique<obs::TraceBuilder>()
                                    : nullptr) {
  if (config_.enabled && coherence_ != nullptr &&
      coherence_->sketch() != nullptr) {
    sketch_.emplace(coherence_->config().delta);
  }
}

FetchResult ClientProxy::Fetch(std::string_view url_text) {
  auto url = http::Url::Parse(url_text);
  if (!url.ok()) {
    // A malformed URL is still a request the page made — count it, or the
    // serve-source buckets stop reconciling with `requests`. It also gets
    // a (zero-latency) trace and error-tier histogram entry, so the span
    // count keeps matching ServedTotal().
    stats_->requests++;
    stats_->errors++;
    BeginTrace(url_text);
    request_degraded_ = false;
    FetchResult result;
    result.response.status_code = 400;
    result.source = ServedFrom::kError;
    RecordRequestOutcome(result);
    return result;
  }
  return Fetch(*url);
}

FetchResult ClientProxy::Fetch(const http::Url& url) {
  // Asset optimization: the service worker reroutes asset requests to the
  // optimized variant. The variant is its own cache key everywhere.
  if (config_.enabled && config_.optimize_assets &&
      StartsWith(url.path(), "/assets/") &&
      url.query().find("skopt=") == std::string::npos) {
    std::string rewritten = url.CacheKey();
    rewritten += url.query().empty() ? "?skopt=1" : "&skopt=1";
    auto optimized = http::Url::Parse(rewritten);
    if (optimized.ok()) return Fetch(*optimized);
  }
  // One foreground request: begin the trace, reset the degraded flag, run
  // the decision flow, then record the outcome exactly once.
  Touch();
  // Only a trace needs the key here; FetchDecide builds its own.
  if (trace_ != nullptr) BeginTrace(url.CacheKey());
  request_degraded_ = false;
  FetchResult result = FetchDecide(url);
  RecordRequestOutcome(result);
  return result;
}

void ClientProxy::RecordRequestOutcome(const FetchResult& result) {
  const int64_t us = result.latency.micros();
  stats_->LatencyFor(result.source)->Add(us);
  (request_degraded_ ? stats_->latency_degraded_us : stats_->latency_ok_us)
      .Add(us);
  if (trace_ != nullptr) {
    trace_->Finish(ServedFromName(result.source), result.response.status_code,
                   request_degraded_, result.latency);
  }
}

FetchResult ClientProxy::FetchDecide(const http::Url& url) {
  stats_->requests++;
  SimTime now = clock_->Now();
  std::string key = url.CacheKey();
  Duration overhead =
      config_.enabled ? config_.device_overhead : Duration::Zero();

  Duration refresh_latency =
      sketch_ ? MaybeRefreshSketchLatency(/*txn_begin=*/false)
              : Duration::Zero();

  // One coherence verdict drives the whole flow: a flagged key must bypass
  // every expiration-based cache between the device and the origin.
  bool flagged = sketch_ && sketch_->MightBeStale(key);

  // Trace attribution for the legs every path shares. A sketch refresh
  // only serializes with cache serves (network fetches overlap it); the
  // span records where the time went either way.
  if (overhead > Duration::Zero()) {
    TraceSpan("proxy.overhead", obs::kTierProxy, overhead);
  }
  if (refresh_latency > Duration::Zero()) {
    TraceSpan("sketch.refresh", obs::kTierProxy, refresh_latency);
  }

  cache::LookupResult lookup = browser_cache_.Lookup(key, now);

  if (lookup.outcome == cache::LookupOutcome::kFreshHit && !flagged) {
    // Serving from the browser cache is gated on the sketch check, so a
    // due refresh is on the critical path here.
    stats_->browser_hits++;
    TraceSpan("browser.hit", obs::kTierBrowser, Duration::Zero());
    return ServeFromEntry(*lookup.entry, ServedFrom::kBrowserCache,
                          overhead + refresh_latency);
  }

  // Attach our validator when we hold any copy (fresh-but-flagged or
  // stale): the origin can then answer with a cheap 304.
  http::HttpRequest request = http::HttpRequest::Get(url);
  if (lookup.entry != nullptr) {
    std::string etag = lookup.entry->response.ETag();
    if (!etag.empty()) request.headers.Set("If-None-Match", etag);
  }

  if (lookup.outcome == cache::LookupOutcome::kStaleHit && !flagged &&
      config_.enabled && config_.stale_while_revalidate &&
      lookup.entry->WithinSwrWindow(now)) {
    // Sketch-clean + within the SWR window: the copy is merely
    // TTL-expired, not invalidated. Serve it instantly and revalidate in
    // the background (the revalidation's latency is off the critical
    // path; its cache updates happen now).
    stats_->swr_serves++;
    TraceSpan("browser.swr_serve", obs::kTierBrowser, Duration::Zero());
    FetchResult served = ServeFromEntry(*lookup.entry,
                                        ServedFrom::kBrowserCache,
                                        overhead + refresh_latency);
    stats_->background_revalidations++;
    background_fetch_ = true;
    (void)FetchOverNetwork(request, key, /*bypass_shared=*/false);
    background_fetch_ = false;
    return served;
  }

  FetchResult result = FetchOverNetwork(request, key, flagged);
  if (flagged) {
    // The bypass decision needed the fresh snapshot, so refresh and fetch
    // serialize.
    result.latency += overhead + refresh_latency;
    result.sketch_bypass = true;
    stats_->sketch_bypasses++;
  } else {
    // Un-flagged network fetches overlap the snapshot refresh: the request
    // is sent optimistically and the sketch arrives while it is in flight
    // (it is only consulted again at serve time).
    result.latency =
        overhead + std::max(refresh_latency, result.latency);
  }
  return result;
}

Duration ClientProxy::MaybeRefreshSketchLatency(bool txn_begin) {
  SimTime now = clock_->Now();
  bool due = txn_begin ? sketch_->Age(now) > Duration::Zero()
                       : sketch_->NeedsRefresh(now);
  if (!due) return Duration::Zero();
  if (!origin_->available()) return Duration::Zero();  // keep the old snapshot
  if (!network_->Delivered(sim::Link::kClientEdge)) {
    // The refresh request never got through: keep the old snapshot and
    // charge one timeout. Degraded mode — the Δ guarantee rests on the
    // next successful refresh; no retry loop here because the refresh is
    // re-attempted by the very next request anyway.
    stats_->timeouts++;
    NoteFaultOnRequest();
    TraceSpan("timeout.wait", obs::kTierNetwork, kRequestTimeout);
    return kRequestTimeout;
  }
  // The published filter is shared across every client of the fleet; the
  // wire-byte count still reflects the serialized form so transfer
  // accounting is unchanged.
  size_t wire_bytes = coherence_->publication().InstallInto(&*sketch_, now);
  stats_->sketch_refreshes++;
  stats_->sketch_bytes += wire_bytes;
  // The sketch service answers from the edge tier.
  return network_->RequestTime(sim::Link::kClientEdge, wire_bytes);
}

TxnResult ClientProxy::FetchTxn(const std::vector<std::string>& urls) {
  TxnResult txn;

  // Δ-atomic: force a snapshot taken at the transaction's own instant so
  // every member read consults one boundary picture. The refresh gates
  // all of the reads' cache serves, so it serializes with them.
  Duration setup = sketch_ ? MaybeRefreshSketchLatency(/*txn_begin=*/true)
                           : Duration::Zero();

  // All reads issue at the same sim instant; the read span is the slowest
  // member (the page fires them in parallel).
  Duration read_span = Duration::Zero();
  txn.reads.reserve(urls.size());
  for (const std::string& url : urls) {
    FetchResult r = Fetch(url);
    read_span = std::max(read_span, r.latency);
    txn.reads.push_back(std::move(r));
  }
  txn.latency = setup + read_span;

  if (coherence_ != nullptr &&
      coherence_->mode() == coherence::CoherenceMode::kSerializable) {
    if (!ValidateTxn(urls, &txn)) txn.aborted = true;
  }
  return txn;
}

bool ClientProxy::ValidateTxn(const std::vector<std::string>& urls,
                              TxnResult* txn) {
  // The version vector of successful reads. Failed reads carry no version
  // to validate — and returned nothing, so they cannot break snapshot
  // consistency either.
  std::vector<coherence::ReadVersion> reads;
  std::vector<size_t> read_index;  // reads[s] came from txn->reads[read_index[s]]
  std::vector<http::Url> read_urls;  // urls[read_index[s]], parsed once
  for (size_t i = 0; i < urls.size(); ++i) {
    const FetchResult& r = txn->reads[i];
    if (!r.response.ok()) continue;
    auto url = http::Url::Parse(urls[i]);
    if (!url.ok()) continue;
    reads.push_back({url->CacheKey(), r.response.object_version});
    read_index.push_back(i);
    read_urls.push_back(std::move(*url));
  }
  if (reads.empty()) return true;

  for (int round = 0;; ++round) {
    // One validation RTT: the vector of (key, version) pairs travels to
    // the origin, which answers against its head versions.
    stats_->txn_validations++;
    size_t wire =
        kTxnValidateBaseBytes + kTxnValidatePerKeyBytes * reads.size();
    stats_->txn_validation_bytes += wire;
    Duration vlat = Duration::Zero();
    if (!origin_->available() ||
        !DeliverWithRetries(sim::Link::kClientOrigin, &vlat)) {
      // No authority to validate against — the commit cannot be certified.
      txn->latency += vlat;
      return false;
    }
    vlat += network_->RequestTime(sim::Link::kClientOrigin, wire);
    txn->latency += vlat;

    std::vector<size_t> stale = coherence_->StaleReadIndexes(reads);
    if (stale.empty()) return true;
    if (round >= coherence_->config().max_txn_retries) return false;
    txn->retries++;

    // Re-fetch the mismatched members, bypassing every shared cache so a
    // retry cannot re-read the same stale copy. One round's re-fetches
    // issue together and cost the slowest member.
    Duration refetch_span = Duration::Zero();
    for (size_t s : stale) {
      size_t i = read_index[s];
      FetchResult r = TxnRefetch(read_urls[s], reads[s].key);
      refetch_span = std::max(refetch_span, r.latency);
      if (r.response.ok()) reads[s].version = r.response.object_version;
      txn->reads[i] = std::move(r);
    }
    txn->latency += refetch_span;
  }
}

FetchResult ClientProxy::TxnRefetch(const http::Url& url,
                                    const std::string& key) {
  Touch();
  // A full foreground request: counted, traced, and funneled through
  // RecordRequestOutcome like any other, so the serve buckets (and the
  // trace count) keep reconciling with `requests`.
  BeginTrace(key);
  request_degraded_ = false;
  stats_->requests++;
  http::HttpRequest request = http::HttpRequest::Get(url);
  FetchResult result = FetchOverNetwork(request, key, /*bypass_shared=*/true);
  result.latency +=
      config_.enabled ? config_.device_overhead : Duration::Zero();
  RecordRequestOutcome(result);
  return result;
}

bool ClientProxy::DeliverWithRetries(sim::Link link, Duration* latency) {
  if (network_->Delivered(link)) return true;
  stats_->timeouts++;
  NoteFaultOnRequest();
  TraceSpan("timeout.wait", obs::kTierNetwork, kRequestTimeout);
  *latency += kRequestTimeout;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    stats_->retries++;
    // Exponential backoff with jitter; the jitter draw comes from the
    // proxy's own RNG stream and only happens on this (fault-only) path,
    // so faultless runs keep their exact draw sequences.
    Duration backoff = kRetryBackoff * static_cast<double>(1 << attempt) *
                       (1.0 + kRetryJitter * rng_.NextDouble());
    TraceSpan("retry.backoff", obs::kTierProxy, backoff);
    *latency += backoff;
    if (network_->Delivered(link)) return true;
    stats_->timeouts++;
    TraceSpan("timeout.wait", obs::kTierNetwork, kRequestTimeout);
    *latency += kRequestTimeout;
  }
  return false;
}

FetchResult ClientProxy::FetchOverNetwork(const http::HttpRequest& request,
                                          const std::string& key,
                                          bool bypass_shared) {
  Audit(request);

  bool via_edge = config_.enabled && config_.use_cdn && cdn_ != nullptr;
  if (!via_edge) return FetchDirect(request, key, Duration::Zero());

  // Degraded-mode decision, step 1: is the accelerated edge path
  // reachable at all? An edge outage or a dead client<->edge link reroutes
  // the request to pass-through against the original site (the paper's
  // fallback rule), carrying the time burned on the failed attempts.
  int edge_index = cdn_->RouteFor(client_id_);
  Duration burned = Duration::Zero();
  bool edge_reachable = cdn_->EdgeAvailable(edge_index);
  if (!edge_reachable) {
    cdn_->NoteEdgeReject(edge_index);
    NoteFaultOnRequest();
    TraceSpan("edge.down_reject", obs::kTierEdge, Duration::Zero());
  } else if (!DeliverWithRetries(sim::Link::kClientEdge, &burned)) {
    edge_reachable = false;
  }
  if (!edge_reachable) {
    FetchResult result = FetchDirect(request, key, burned);
    if (result.source != ServedFrom::kError) stats_->fallback_serves++;
    return result;
  }
  return FetchViaEdge(request, key, bypass_shared, edge_index, burned);
}

FetchResult ClientProxy::FetchDirect(const http::HttpRequest& request,
                                     const std::string& key, Duration burned) {
  if (!DeliverWithRetries(sim::Link::kClientOrigin, &burned)) {
    return OfflineFallback(key, burned);
  }
  http::HttpResponse resp = origin_->Handle(request);
  if (resp.status_code == 503) {
    Duration rtt = network_->SampleRtt(sim::Link::kClientOrigin);
    TraceSpan("net.client_origin", obs::kTierNetwork, rtt);
    return OfflineFallback(key, burned + rtt);
  }
  size_t down = resp.IsNotModified() ? kNotModifiedWireBytes : resp.WireSize();
  // RTT draws are hoisted into locals (here and everywhere a span needs a
  // leg's duration) — each call site keeps its position and count, so the
  // network's RNG stream advances exactly as before tracing existed.
  Duration rtt = network_->SampleRtt(sim::Link::kClientOrigin);
  Duration xfer = network_->TransferTime(sim::Link::kClientOrigin, down);
  TraceSpan("net.client_origin", obs::kTierNetwork, rtt + xfer);
  TraceSpan("origin.render", obs::kTierOrigin, resp.server_time);
  Duration lat = burned + rtt + xfer + resp.server_time;
  return FinishClientResponse(request, key, resp, ServedFrom::kOrigin, lat);
}

FetchResult ClientProxy::FetchViaEdge(const http::HttpRequest& request,
                                      const std::string& key,
                                      bool bypass_shared, int edge_index,
                                      Duration burned) {
  SimTime now = clock_->Now();
  // This client's edge belongs to this proxy's shard (clients pin to
  // edges, edges to shards), and the shard's Cdn holds it outright, so the
  // whole edge-cache interaction below runs unsynchronized.
  cache::HttpCache& edge = cdn_->edge(edge_index);
  // Origin-flight window (kCoalesce; kInstant skips in one branch): while
  // the leader's origin fetch for this key is still in transit, its stored
  // response is not yet visible at a real edge, so a request joins the
  // flight — pays the remaining window and serves the leader's response.
  // Sketch-flagged requests (bypass_shared) never coalesce: sharing a
  // leader's response would reintroduce the staleness the flag exists to
  // prevent.
  const bool coalesce =
      !bypass_shared &&
      cdn_->flight_mode() == cache::OriginFlightMode::kCoalesce;
  // A stale edge copy, revalidated upstream with the edge's own validator.
  const cache::CacheEntry* stale = nullptr;
  if (!bypass_shared) {
    Duration flight_wait = Duration::Zero();
    if (coalesce) {
      std::optional<SimTime> ready =
          cdn_->OpenFlightReadyAt(edge_index, key, now);
      if (ready.has_value()) flight_wait = *ready - now;
    }
    cache::LookupResult el = edge.Lookup(key, now);
    if (el.outcome == cache::LookupOutcome::kFreshHit) {
      if (flight_wait > Duration::Zero()) {
        // Joined the open flight: the response is logically still on the
        // wire from the origin; the join waits out the remainder.
        cdn_->NoteFlightJoin();
        TraceSpan("edge.flight_join", obs::kTierEdge, flight_wait);
        burned += flight_wait;
      }
      // A matching client validator gets a cache-minted 304. Its
      // generated_at is the entry's original render time so the browser
      // inherits the remaining freshness, never more.
      const http::HttpResponse& copy = el.entry->response;
      auto inm = request.headers.Get("If-None-Match");
      if (inm.has_value() && *inm == copy.ETag()) {
        return ServeEdgeCopy(
            request, key,
            http::MakeNotModified(*inm, copy.GetCacheControl(),
                                  copy.object_version, copy.generated_at),
            "edge.hit_304", burned);
      }
      return ServeEdgeCopy(request, key, copy, "edge.hit", burned);
    }
    if (el.outcome == cache::LookupOutcome::kStaleHit) stale = el.entry;
  }

  // The upstream leg. A stale copy is revalidated with the edge's
  // validator, and the client still gets a full body from the edge unless
  // its own validator matches too. A miss, or a sketch-flagged request that
  // must reach the origin, passes through with the client's own validator.
  // Either way the edge is updated on the way back so later clients
  // benefit.
  std::optional<http::HttpRequest> revalidation;
  if (stale != nullptr) {
    revalidation.emplace(request);
    std::string edge_etag = stale->response.ETag();
    if (!edge_etag.empty()) {
      revalidation->headers.Set("If-None-Match", edge_etag);
    }
  }
  if (!DeliverWithRetries(sim::Link::kEdgeOrigin, &burned)) {
    if (stale != nullptr) {
      // Degraded mode, step 2: the upstream is unreachable but the edge
      // still holds a copy — serve it stale (stale-if-error) rather than
      // fail. Safe for sketch-clean keys: they are merely TTL-expired; a
      // genuinely invalidated key is flagged and never gets here (it
      // bypasses the edge entirely).
      stats_->fallback_serves++;
      NoteFaultOnRequest();
      return ServeEdgeCopy(request, key, stale->response,
                           "edge.stale_if_error", burned);
    }
    // Nothing servable at the edge (miss, or a flagged key that must not
    // be served from a shared cache): last resort is the offline cache.
    Duration rtt_ce = network_->SampleRtt(sim::Link::kClientEdge);
    TraceSpan("net.client_edge", obs::kTierNetwork, rtt_ce);
    return OfflineFallback(key, burned + rtt_ce);
  }
  http::HttpResponse oresp =
      origin_->Handle(revalidation ? *revalidation : request);
  if (oresp.status_code == 503) {
    // Draw order matters: the RNG stream must stay byte-identical, and a
    // revalidation draws the edge->origin leg first while a pass-through
    // draws the client<->edge leg first.
    Duration rtt_eo = revalidation
                          ? network_->SampleRtt(sim::Link::kEdgeOrigin)
                          : Duration::Zero();
    Duration rtt_ce = network_->SampleRtt(sim::Link::kClientEdge);
    if (!revalidation) rtt_eo = network_->SampleRtt(sim::Link::kEdgeOrigin);
    TraceSpan("net.client_edge", obs::kTierNetwork, rtt_ce);
    TraceSpan("net.edge_origin", obs::kTierNetwork, rtt_eo);
    return OfflineFallback(key, burned + rtt_ce + rtt_eo);
  }
  size_t down =
      oresp.IsNotModified() ? kNotModifiedWireBytes : oresp.WireSize();
  Duration rtt_eo = network_->SampleRtt(sim::Link::kEdgeOrigin);
  Duration rtt_ce = network_->SampleRtt(sim::Link::kClientEdge);
  Duration xfer_eo = network_->TransferTime(sim::Link::kEdgeOrigin, down);
  TraceSpan(revalidation    ? "edge.revalidate"
            : bypass_shared ? "edge.bypass"
                            : "edge.miss",
            obs::kTierEdge, Duration::Zero());
  TraceSpan("net.edge_origin", obs::kTierNetwork, rtt_eo + xfer_eo);
  TraceSpan("origin.render", obs::kTierOrigin, oresp.server_time);
  const http::HttpResponse* served = &oresp;
  ServedFrom source = ServedFrom::kOrigin;
  if (oresp.IsNotModified()) {
    edge.Refresh(key, oresp);
    if (revalidation) {
      // The edge's copy is confirmed and the edge answers. Edges are
      // unbounded, so the copy is still there; the lookup counts in the
      // edge's hit counters. If the client's validator also matches, the
      // origin's 304 is forwarded instead of the body.
      cache::LookupResult refreshed = edge.Lookup(key, now);
      source = ServedFrom::kEdgeCache;
      auto inm = request.headers.Get("If-None-Match");
      if (!inm.has_value() || *inm != oresp.ETag()) {
        served = &refreshed.entry->response;
      }
    }
  } else {
    if (coalesce && !revalidation) {
      // This miss leads a flight: the stored response becomes visible to
      // other clients only once the origin round trip completes. A no-op
      // for a miss inside an already-open window.
      cdn_->BeginFlight(edge_index, key, now,
                        now + rtt_eo + xfer_eo + oresp.server_time);
    }
    edge.Store(key, oresp);
  }
  size_t to_client =
      served->IsNotModified() ? kNotModifiedWireBytes : served->WireSize();
  Duration xfer_ce = network_->TransferTime(sim::Link::kClientEdge, to_client);
  TraceSpan("net.client_edge", obs::kTierNetwork, rtt_ce + xfer_ce);
  return FinishClientResponse(
      request, key, *served, source,
      burned + rtt_ce + rtt_eo + xfer_eo + xfer_ce + oresp.server_time);
}

FetchResult ClientProxy::ServeEdgeCopy(const http::HttpRequest& request,
                                       const std::string& key,
                                       const http::HttpResponse& resp,
                                       std::string_view span,
                                       Duration latency) {
  Duration rt = network_->RequestTime(
      sim::Link::kClientEdge,
      resp.IsNotModified() ? kNotModifiedWireBytes : resp.WireSize());
  TraceSpan(span, obs::kTierEdge, Duration::Zero());
  TraceSpan("net.client_edge", obs::kTierNetwork, rt);
  return FinishClientResponse(request, key, resp, ServedFrom::kEdgeCache,
                              latency + rt);
}

FetchResult ClientProxy::FinishClientResponse(const http::HttpRequest& request,
                                              const std::string& key,
                                              const http::HttpResponse& resp,
                                              ServedFrom source,
                                              Duration latency) {
  FetchResult result;
  result.latency = latency;
  const bool not_modified = resp.IsNotModified();
  if (!not_modified && !resp.ok()) {
    if (background_fetch_) {
      stats_->background_errors++;
    } else {
      stats_->errors++;
      result.response = resp;
    }
    return result;
  }
  // One browser-cache update for foreground and background responses: a
  // 304 confirms the stored copy, a 2xx replaces it.
  if (not_modified) {
    browser_cache_.Refresh(key, resp);
  } else {
    browser_cache_.Store(key, resp);
  }
  const size_t wire = not_modified ? kNotModifiedWireBytes : resp.WireSize();
  if (background_fetch_) {
    // Background revalidation: keep the traffic out of the per-request
    // serve buckets — there is no `requests` increment to reconcile
    // against. Only the source is read (FetchOverNetwork counts a
    // rerouted revalidation as a fallback serve).
    (not_modified ? stats_->background_304s : stats_->background_200s)++;
    stats_->background_bytes += wire;
    result.source = source;
    return result;
  }
  stats_->bytes_over_network += wire;
  if (not_modified) {
    stats_->revalidations_304++;
    cache::LookupResult refreshed = browser_cache_.Lookup(key, clock_->Now());
    if (refreshed.entry == nullptr) {
      // The entry vanished (eviction) between validation and serve; a real
      // SW would re-issue unconditionally. Model that as an error: it is
      // rare enough not to warrant a second hop here.
      stats_->errors++;
      result.response.status_code = 504;
      return result;
    }
    result = ServeFromEntry(*refreshed.entry, source, latency);
    result.revalidated = true;
  } else {
    if (request.IsConditional()) stats_->revalidations_200++;
    result.response = resp;
    result.source = source;
  }
  // The round trip that served this request is attributed to the tier
  // that answered, so serve counts reconcile with `requests`.
  (source == ServedFrom::kEdgeCache ? stats_->edge_hits
                                    : stats_->origin_fetches)++;
  return result;
}

FetchResult ClientProxy::OfflineFallback(const std::string& key,
                                         Duration attempt_latency) {
  if (background_fetch_) {
    // A failed background revalidation: the foreground request was already
    // served from the stale copy, so there is nothing to fall back to.
    // Only the result's kError source is read.
    stats_->background_errors++;
    return FetchResult();
  }
  NoteFaultOnRequest();
  if (config_.enabled && config_.offline_mode) {
    cache::LookupResult lookup = browser_cache_.Lookup(key, clock_->Now());
    if (lookup.entry != nullptr) {
      stats_->offline_serves++;
      TraceSpan("offline.serve", obs::kTierOffline, Duration::Zero());
      return ServeFromEntry(*lookup.entry, ServedFrom::kOfflineCache,
                            attempt_latency);
    }
  }
  stats_->errors++;
  FetchResult result;
  result.response = http::MakeServiceUnavailable();
  result.latency = attempt_latency;
  return result;
}

FetchResult ClientProxy::ServeFromEntry(const cache::CacheEntry& entry,
                                        ServedFrom source, Duration latency) {
  stats_->bytes_from_browser_cache += entry.response.body.size();
  FetchResult result;
  result.response = entry.response;
  result.latency = latency;
  result.source = source;
  return result;
}

BlockResult ClientProxy::FetchBlock(
    const personalization::PageTemplate& page,
    const personalization::DynamicBlock& block,
    const personalization::Segmenter& segmenter) {
  // The block's URL is also its cache key in every tier: the page and the
  // block name it, and a segment block adds its cohort.
  std::string url = "https://shop.example.com/api/fragments/" + block.id +
                    "?page=" +
                    StrFormat("%016llx", static_cast<unsigned long long>(
                                             Fnv1a_64(page.url)));
  uint64_t user_id = vault_ != nullptr ? vault_->user_id() : client_id_;
  // GDPR path: a user block is fetched as a cacheable anonymous template
  // and joined on-device. Legacy path: identity crosses the boundary, and
  // nothing is cacheable.
  const bool on_device = block.scope == personalization::BlockScope::kUser &&
                         config_.enabled && config_.gdpr_mode;
  switch (block.scope) {
    case personalization::BlockScope::kStatic:
      break;
    case personalization::BlockScope::kSegment:
      url += "&seg=" + segmenter.SegmentFor(user_id);
      break;
    case personalization::BlockScope::kUser:
      url += on_device ? "&tpl=1" : "&user=" + std::to_string(user_id);
      break;
  }
  FetchResult r = Fetch(url);
  BlockResult out;
  out.content = r.response.body.ToString();
  out.latency = r.latency;
  out.source = r.source;
  if (on_device) {
    if (vault_ != nullptr) out.content = vault_->RenderLocally(out.content);
    out.latency += kRenderOverhead;
    out.rendered_on_device = true;
  }
  return out;
}

void ClientProxy::Audit(const http::HttpRequest& request) {
  if (auditor_ != nullptr) auditor_->Inspect(request);
}

void ClientProxy::Touch() {
  last_active_ = clock_->Now();
  EnsureThawed();
}

void ClientProxy::EnsureThawed() {
  if (!browser_cache_frozen_) return;
  // Thaw rebuilds contents, recency order and stats exactly; a corrupt
  // blob (impossible barring memory corruption — we wrote it) degrades to
  // an empty cache rather than crashing the fleet.
  browser_cache_.Thaw(frozen_browser_cache_, &frozen_handles_);
  std::string().swap(frozen_browser_cache_);
  frozen_handles_ = cache::FrozenHandles();
  browser_cache_frozen_ = false;
  ++thaws_;
}

void ClientProxy::FreezeBrowserCache() {
  if (browser_cache_frozen_) return;
  // An empty live cache is already smaller than any blob — but only if it
  // has no history to preserve: stats and eviction counters survive a
  // freeze only via the blob, so a used-but-currently-empty cache still
  // takes the serialize path.
  const cache::HttpCacheStats& s = browser_cache_.stats();
  if (browser_cache_.size() == 0 && s.stores == 0 && s.misses == 0 &&
      s.store_rejects == 0 && s.purges == 0) {
    return;
  }
  frozen_browser_cache_ = browser_cache_.Freeze(&frozen_handles_);
  // Replace (not Clear) the live cache so its stats and eviction counters
  // go too: the blob carries them.
  browser_cache_ = cache::HttpCache(/*shared=*/false,
                                    config_.browser_cache_bytes);
  browser_cache_frozen_ = true;
  ++freezes_;
}

}  // namespace speedkit::proxy
