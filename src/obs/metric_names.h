// Canonical metric names — the single source of truth for everything the
// observability layer emits.
//
// Every name registered into a MetricsRegistry MUST come from this file,
// and every name in this file MUST be documented in docs/METRICS.md
// (name, kind, unit, labels, owning component, when it moves). CI enforces
// both directions with tools/check_metrics_docs.py, which parses the quoted
// string literals below — so keep one constant per line and nothing else
// quoted in this header.
//
// Naming convention: `<component>.<what>[_<unit>]`, lowercase, dots between
// component and measure, underscores inside a measure. Breakdown dimensions
// (cache tier, fault state, link, route, ...) are labels on the same name,
// never name suffixes, so a reader can aggregate across a family by name.
#ifndef SPEEDKIT_OBS_METRIC_NAMES_H_
#define SPEEDKIT_OBS_METRIC_NAMES_H_

#include <string_view>

namespace speedkit::obs {

// -- proxy (ClientProxy request path; snapshot of ProxyStats) --------------
inline constexpr std::string_view kProxyRequests = "proxy.requests";
inline constexpr std::string_view kProxyServes = "proxy.serves";
inline constexpr std::string_view kProxyRevalidations = "proxy.revalidations";
inline constexpr std::string_view kProxySketchBypasses = "proxy.sketch_bypasses";
inline constexpr std::string_view kProxySketchRefreshes = "proxy.sketch_refreshes";
inline constexpr std::string_view kProxySketchBytes = "proxy.sketch_bytes";
inline constexpr std::string_view kProxyBytes = "proxy.bytes";
inline constexpr std::string_view kProxyTimeouts = "proxy.timeouts";
inline constexpr std::string_view kProxyRetries = "proxy.retries";
inline constexpr std::string_view kProxyFallbackServes = "proxy.fallback_serves";
inline constexpr std::string_view kProxyBackgroundRevalidations =
    "proxy.background_revalidations";
inline constexpr std::string_view kProxyBackgroundResponses =
    "proxy.background_responses";
inline constexpr std::string_view kProxyBackgroundBytes = "proxy.background_bytes";
inline constexpr std::string_view kRequestLatencyUs = "request.latency_us";

// -- HTTP caches (browser cache + CDN edges; snapshot of HttpCacheStats) ---
inline constexpr std::string_view kCacheLookups = "cache.lookups";
inline constexpr std::string_view kCacheStores = "cache.stores";
inline constexpr std::string_view kCacheStoreRejects = "cache.store_rejects";
inline constexpr std::string_view kCacheRefreshes = "cache.refreshes";
inline constexpr std::string_view kCachePurges = "cache.purges";

// -- CDN edge fault handling (snapshot of EdgeFaultStats) ------------------
inline constexpr std::string_view kEdgeDownRejects = "edge.down_rejects";
inline constexpr std::string_view kEdgePurgesDropped = "edge.purges_dropped";
inline constexpr std::string_view kEdgePurgesDelayed = "edge.purges_delayed";
inline constexpr std::string_view kEdgePurgeDelayUs = "edge.purge_delay_us";
inline constexpr std::string_view kEdgeFlightsStarted = "edge.flights_started";
inline constexpr std::string_view kEdgeFlightJoins = "edge.flight_joins";
inline constexpr std::string_view kEdgeHerdFetches = "edge.herd_fetches";

// -- invalidation pipeline (snapshot of PipelineStats) ---------------------
inline constexpr std::string_view kPipelineWritesSeen = "pipeline.writes_seen";
inline constexpr std::string_view kPipelineKeysInvalidated =
    "pipeline.keys_invalidated";
inline constexpr std::string_view kPipelinePurges = "pipeline.purges";
inline constexpr std::string_view kPipelinePropagationLatencyUs =
    "pipeline.propagation_latency_us";

// -- origin server (snapshot of OriginStats) -------------------------------
inline constexpr std::string_view kOriginRequests = "origin.requests";
inline constexpr std::string_view kOriginNotModified = "origin.not_modified";
inline constexpr std::string_view kOriginRejectedUnavailable =
    "origin.rejected_unavailable";
inline constexpr std::string_view kOriginRenderCache = "origin.render_cache";
inline constexpr std::string_view kOriginRenderTimeUs = "origin.render_time_us";
inline constexpr std::string_view kOriginRenderTimeSavedUs =
    "origin.render_time_saved_us";

// -- staleness tracker (snapshot of StalenessReport) -----------------------
inline constexpr std::string_view kStalenessReads = "staleness.reads";
inline constexpr std::string_view kStalenessStaleReads = "staleness.stale_reads";
inline constexpr std::string_view kStalenessClamped = "staleness.clamped";
inline constexpr std::string_view kStalenessDeltaViolations =
    "staleness.delta_violations";
inline constexpr std::string_view kStalenessExcusedStaleReads =
    "staleness.excused_stale_reads";
inline constexpr std::string_view kStalenessMaxUs = "staleness.max_us";
inline constexpr std::string_view kStalenessUs = "staleness.staleness_us";

// -- server cache sketch ---------------------------------------------------
inline constexpr std::string_view kSketchEntries = "sketch.entries";
inline constexpr std::string_view kSketchSnapshotBytes = "sketch.snapshot_bytes";

// -- WAN model (recorded live while the simulation runs) -------------------
inline constexpr std::string_view kNetworkRttUs = "network.rtt_us";

// -- the tracing layer itself ----------------------------------------------
inline constexpr std::string_view kTraceEmitted = "trace.emitted";
inline constexpr std::string_view kTraceDropped = "trace.dropped";

}  // namespace speedkit::obs

#endif  // SPEEDKIT_OBS_METRIC_NAMES_H_
