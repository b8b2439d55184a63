// Request tracing — one RequestTrace per page request (and per purge
// fan-out), made of Spans that attribute the request's latency to the
// layers it crossed: proxy overhead, browser cache, CDN edge, WAN links,
// origin render, retry backoff.
//
// The simulator computes latencies arithmetically (time only advances
// between events), so spans carry explicit offsets and durations relative
// to the trace start rather than wall-clock timestamps: the proxy already
// knows exactly how long each leg took, and the trace just writes those
// numbers down. Tracing therefore NEVER samples the clock, draws
// randomness, or branches on simulation state — a traced run is
// bit-for-bit identical to an untraced one (tests/obs/trace_test.cc and
// the CI gate both enforce this).
//
// Cost when disabled: a default-constructed Tracer has a null sink, and
// every TraceBuilder call starts with a single `active()` branch — no
// allocation, no string copies.
#ifndef SPEEDKIT_OBS_TRACE_H_
#define SPEEDKIT_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace speedkit::obs {

// Trace kinds.
inline constexpr std::string_view kTraceKindRequest = "request";
inline constexpr std::string_view kTraceKindPurge = "purge";

// Span/serve tier names shared by traces, per-tier histograms and docs.
inline constexpr std::string_view kTierProxy = "proxy";
inline constexpr std::string_view kTierBrowser = "browser";
inline constexpr std::string_view kTierEdge = "edge";
inline constexpr std::string_view kTierNetwork = "network";
inline constexpr std::string_view kTierOrigin = "origin";
inline constexpr std::string_view kTierOffline = "offline";
inline constexpr std::string_view kTierError = "error";
inline constexpr std::string_view kTierPurge = "purge";

struct Span {
  std::string name;    // what happened: "net.client_edge", "origin.render"
  std::string tier;    // which layer paid for it: proxy|browser|edge|network|origin|purge
  int64_t start_us = 0;     // offset from the trace start
  int64_t duration_us = 0;

  friend bool operator==(const Span&, const Span&) = default;
};

struct RequestTrace {
  uint64_t id = 0;
  std::string kind;        // kTraceKindRequest | kTraceKindPurge
  std::string url;         // request URL, or the purged cache key
  std::string tier;        // final serve tier (requests) / kTierPurge
  int status = 0;          // HTTP status of the delivered response
  bool degraded = false;   // a fault-handling path fired on the way
  int64_t start_us = 0;    // simulated time the request began
  int64_t latency_us = 0;  // end-to-end latency (= sum of the critical path)
  std::vector<Span> spans;

  friend bool operator==(const RequestTrace&, const RequestTrace&) = default;
};

// Where finished traces go: every one is kept in memory.
class InMemoryTraceSink {
 public:
  void Emit(RequestTrace&& trace) { traces_.push_back(std::move(trace)); }

  uint64_t emitted() const { return traces_.size(); }
  const std::vector<RequestTrace>& traces() const { return traces_; }

 private:
  std::vector<RequestTrace> traces_;
};

// Hands out trace ids and forwards finished traces. Default-constructed =
// disabled; components keep a Tracer by value and never null-check a sink
// themselves.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(InMemoryTraceSink* sink) : sink_(sink) {}

  bool enabled() const { return sink_ != nullptr; }
  uint64_t NextId() { return next_id_++; }
  void Emit(RequestTrace&& trace) {
    if (sink_ != nullptr) sink_->Emit(std::move(trace));
  }

 private:
  InMemoryTraceSink* sink_ = nullptr;
  uint64_t next_id_ = 0;
};

// Per-request scratch: the proxy (or pipeline) Begin()s it when a request
// enters, adds spans as legs complete, and Finish()es it with the final
// tier/status. Inactive (tracing off) every method is one branch deep.
class TraceBuilder {
 public:
  TraceBuilder() = default;

  void Begin(Tracer* tracer, std::string_view kind, std::string_view url,
             SimTime start) {
    if (tracer == nullptr || !tracer->enabled()) {
      tracer_ = nullptr;
      return;
    }
    tracer_ = tracer;
    trace_ = RequestTrace{};
    trace_.id = tracer->NextId();
    trace_.kind = std::string(kind);
    trace_.url = std::string(url);
    trace_.start_us = start.micros();
    cursor_us_ = 0;
  }

  bool active() const { return tracer_ != nullptr; }

  // Appends a span covering [cursor, cursor + duration) and advances the
  // cursor — legs on the critical path are laid end to end.
  void AddSpan(std::string_view name, std::string_view tier,
               Duration duration) {
    if (!active()) return;
    AddSpanAt(name, tier, Duration::Micros(cursor_us_), duration);
    cursor_us_ += duration.micros();
  }

  // Appends a span at an explicit offset without moving the cursor (for
  // overlapping work, e.g. purge deliveries fanning out in parallel).
  void AddSpanAt(std::string_view name, std::string_view tier,
                 Duration start_offset, Duration duration) {
    if (!active()) return;
    Span span;
    span.name = std::string(name);
    span.tier = std::string(tier);
    span.start_us = start_offset.micros();
    span.duration_us = duration.micros();
    trace_.spans.push_back(std::move(span));
  }

  void Finish(std::string_view tier, int status, bool degraded,
              Duration latency) {
    if (!active()) return;
    trace_.tier = std::string(tier);
    trace_.status = status;
    trace_.degraded = degraded;
    trace_.latency_us = latency.micros();
    tracer_->Emit(std::move(trace_));
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_ = nullptr;
  RequestTrace trace_;
  int64_t cursor_us_ = 0;
};

}  // namespace speedkit::obs

#endif  // SPEEDKIT_OBS_TRACE_H_
