// Shared --trace support for the fig_*/tbl_* harnesses.
//
// Every traffic-driven binary accepts --trace[=<path>] (Harness::Trace in
// harness.h). When set, the harness re-runs its representative
// configuration (seed index 0 — the same trial the sweep runs) twice: once
// untraced and once with the full observability layer on. It then
//   1. asserts the two runs produced identical experiment metrics — the
//      obs layer's "never changes results" contract, checked on every
//      traced invocation, not just in CI;
//   2. prints the per-tier client-latency breakdown (the request.latency_us
//      histograms by serving tier and fault state);
//   3. writes the trace CSV that tools/trace_report renders, with
//      served_total in the metadata so the report can verify one
//      request-trace per served request.
// A mismatch in step 1 is a broken invariant, not a degraded result: the
// process dies with exit code 1 so CI and scripts cannot miss it.
#ifndef SPEEDKIT_BENCH_TRACE_SUPPORT_H_
#define SPEEDKIT_BENCH_TRACE_SUPPORT_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/parallel_runner.h"
#include "bench/table.h"
#include "bench/workload_runner.h"
#include "obs/export.h"

namespace speedkit::bench {

namespace trace_internal {

// Compares one scalar; prints the first divergence loudly.
inline bool CheckEqual(const char* what, uint64_t untraced, uint64_t traced,
                       bool* ok) {
  if (untraced == traced) return true;
  std::fprintf(stderr,
               "TRACE INVARIANT BROKEN: %s differs with tracing on "
               "(untraced=%llu traced=%llu)\n",
               what, static_cast<unsigned long long>(untraced),
               static_cast<unsigned long long>(traced));
  *ok = false;
  return false;
}

// The experiment-visible surface of a run: every counter a table or JSON
// row can print. Histograms are compared via count+sum+extremes, which
// pins the full sample multiset for our integer-valued latencies.
inline bool SameHistogram(const char* what, const Histogram& a,
                          const Histogram& b, bool* ok) {
  bool same = true;
  std::string base(what);
  same &= CheckEqual((base + ".count").c_str(), a.count(), b.count(), ok);
  same &= CheckEqual((base + ".sum").c_str(),
                     static_cast<uint64_t>(a.Sum()),
                     static_cast<uint64_t>(b.Sum()), ok);
  same &= CheckEqual((base + ".min").c_str(), static_cast<uint64_t>(a.min()),
                     static_cast<uint64_t>(b.min()), ok);
  same &= CheckEqual((base + ".max").c_str(), static_cast<uint64_t>(a.max()),
                     static_cast<uint64_t>(b.max()), ok);
  return same;
}

inline bool SameExperimentOutputs(const RunOutput& u, const RunOutput& t) {
  bool ok = true;
  const proxy::ProxyStats& a = u.traffic.proxies;
  const proxy::ProxyStats& b = t.traffic.proxies;
  CheckEqual("proxy.requests", a.requests, b.requests, &ok);
  CheckEqual("proxy.browser_hits", a.browser_hits, b.browser_hits, &ok);
  CheckEqual("proxy.swr_serves", a.swr_serves, b.swr_serves, &ok);
  CheckEqual("proxy.edge_hits", a.edge_hits, b.edge_hits, &ok);
  CheckEqual("proxy.origin_fetches", a.origin_fetches, b.origin_fetches, &ok);
  CheckEqual("proxy.offline_serves", a.offline_serves, b.offline_serves, &ok);
  CheckEqual("proxy.errors", a.errors, b.errors, &ok);
  CheckEqual("proxy.revalidations_304", a.revalidations_304,
             b.revalidations_304, &ok);
  CheckEqual("proxy.revalidations_200", a.revalidations_200,
             b.revalidations_200, &ok);
  CheckEqual("proxy.sketch_bypasses", a.sketch_bypasses, b.sketch_bypasses,
             &ok);
  CheckEqual("proxy.sketch_refreshes", a.sketch_refreshes, b.sketch_refreshes,
             &ok);
  CheckEqual("proxy.bytes_over_network", a.bytes_over_network,
             b.bytes_over_network, &ok);
  CheckEqual("proxy.timeouts", a.timeouts, b.timeouts, &ok);
  CheckEqual("proxy.retries", a.retries, b.retries, &ok);
  CheckEqual("proxy.fallback_serves", a.fallback_serves, b.fallback_serves,
             &ok);
  CheckEqual("proxy.background_revalidations", a.background_revalidations,
             b.background_revalidations, &ok);
  SameHistogram("api_latency_us", u.traffic.api_latency_us,
                t.traffic.api_latency_us, &ok);
  SameHistogram("all_latency_us", u.traffic.all_latency_us,
                t.traffic.all_latency_us, &ok);
  CheckEqual("staleness.reads", u.staleness.reads, t.staleness.reads, &ok);
  CheckEqual("staleness.stale_reads", u.staleness.stale_reads,
             t.staleness.stale_reads, &ok);
  CheckEqual("staleness.delta_violations", u.staleness.delta_violations,
             t.staleness.delta_violations, &ok);
  CheckEqual("staleness.max_us",
             static_cast<uint64_t>(u.staleness.max_staleness.micros()),
             static_cast<uint64_t>(t.staleness.max_staleness.micros()), &ok);
  CheckEqual("origin.requests", u.origin_requests, t.origin_requests, &ok);
  CheckEqual("pipeline.purges_scheduled", u.pipeline.purges_scheduled,
             t.pipeline.purges_scheduled, &ok);
  CheckEqual("pipeline.purges_effective", u.pipeline.purges_effective,
             t.pipeline.purges_effective, &ok);
  CheckEqual("edge.down_rejects", u.edge_faults.down_rejects,
             t.edge_faults.down_rejects, &ok);
  CheckEqual("sketch.entries", u.sketch_entries, t.sketch_entries, &ok);
  CheckEqual("sketch.snapshot_bytes", u.sketch_snapshot_bytes,
             t.sketch_snapshot_bytes, &ok);
  return ok;
}

}  // namespace trace_internal

// Prints the per-tier latency breakdown of one run (ms). Works for any
// run — the tier histograms fill unconditionally — but harnesses call it
// from the --trace path where it sits next to the trace CSV it explains.
inline void PrintTierBreakdown(const proxy::ProxyStats& p) {
  Table table("per-tier client latency breakdown (ms)", "",
              {{"tier"}, {"requests"}, {"p50", 1}, {"p90", 1}, {"p95", 1},
               {"p99", 1}});
  auto row = [&table](const char* tier, const Histogram& h) {
    if (h.count() == 0) return;
    table.Add({tier, h.count(), h.P50() / 1e3, h.P90() / 1e3, h.P95() / 1e3,
               h.P99() / 1e3});
  };
  row("browser", p.latency_browser_us);
  row("edge", p.latency_edge_us);
  row("origin", p.latency_origin_us);
  row("offline", p.latency_offline_us);
  row("error", p.latency_error_us);
  row("ok", p.latency_ok_us);
  row("degraded", p.latency_degraded_us);
}

// The --trace entry point: no-op when `trace_path` is empty, otherwise the
// re-run / verify / report / export sequence described in the file header.
// `base` should be the harness's representative configuration (typically
// its first sweep config); `bench_name` labels the CSV metadata.
inline void MaybeTraceRun(const RunSpec& base, const std::string& bench_name,
                          const std::string& trace_path) {
  if (trace_path.empty()) return;
  PrintSection("trace capture (--trace): " + trace_path);

  RunSpec spec = SpecForSeed(base, 0);
  // Tracing captures one canonical unsharded run: a sharded run keeps one
  // trace sink per shard and its merged output carries no captures, so
  // there would be nothing to export (the sharded engine's own invariant
  // — numbers never change with shards=1 vs the legacy stack — is gated
  // separately by fig_throughput and tests/bench).
  spec.stack.shards = 1;
  spec.run_threads = 1;
  RunOutput untraced = RunWorkload(spec);

  RunSpec traced_spec = spec;
  traced_spec.stack.obs.metrics = true;
  traced_spec.stack.obs.tracing = true;
  RunOutput traced = RunWorkload(traced_spec);

  if (!trace_internal::SameExperimentOutputs(untraced, traced)) {
    std::fprintf(stderr,
                 "FATAL: tracing changed experiment results for %s "
                 "(seed=%llu) — the observability layer must be inert\n",
                 bench_name.c_str(),
                 static_cast<unsigned long long>(spec.stack.seed));
    std::exit(1);
  }
  Note("traced run matches untraced run field-for-field (seed " +
       std::to_string(spec.stack.seed) + ")");

  PrintTierBreakdown(traced.traffic.proxies);

  const proxy::ProxyStats& p = traced.traffic.proxies;
  obs::MetaList meta = {
      {"bench", bench_name},
      {"seed", std::to_string(spec.stack.seed)},
      {"requests", std::to_string(p.requests)},
      {"served_total", std::to_string(p.ServedTotal())},
      {"trace_emitted", std::to_string(traced.traces->emitted())},
      {"trace_dropped", std::to_string(traced.traces->dropped())},
  };
  if (obs::WriteTraceCsv(trace_path, traced.traces->traces(), meta)) {
    Note("wrote " + std::to_string(traced.traces->traces().size()) +
         " traces to " + trace_path + " (render with tools/trace_report)");
  }
}

}  // namespace speedkit::bench

#endif  // SPEEDKIT_BENCH_TRACE_SUPPORT_H_
