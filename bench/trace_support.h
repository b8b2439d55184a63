// Shared --trace support for the fig_*/tbl_* harnesses.
//
// Every traffic-driven binary accepts --trace[=<path>] (Harness::Trace in
// harness.h). When set, the harness re-runs its representative
// configuration (seed index 0 — the same trial the sweep runs) twice: once
// untraced and once with the full observability layer on. It then
//   1. asserts the two runs have the same FingerprintRun, which mixes every
//      counter and full histogram the experiments print — the obs layer's
//      "never changes results" contract, checked on every traced
//      invocation, not just in CI;
//   2. prints the per-tier client-latency breakdown (the request.latency_us
//      histograms by serving tier and fault state);
//   3. writes the trace CSV that tools/trace_report renders, with
//      served_total in the metadata so the report can verify one
//      request-trace per served request.
// A mismatch in step 1 is a broken invariant, not a degraded result: the
// process dies with exit code 1 so CI and scripts cannot miss it.
#ifndef SPEEDKIT_BENCH_TRACE_SUPPORT_H_
#define SPEEDKIT_BENCH_TRACE_SUPPORT_H_

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/parallel_runner.h"
#include "bench/table.h"
#include "bench/workload_runner.h"
#include "common/strings.h"
#include "obs/export.h"

namespace speedkit::bench {

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

  const uint64_t untraced_fp = FingerprintRun(untraced);
  const uint64_t traced_fp = FingerprintRun(traced);
  if (untraced_fp != traced_fp) {
    std::fprintf(stderr,
                 "FATAL: tracing changed experiment results for %s "
                 "(seed=%" PRIu64 ", fingerprint untraced=%016" PRIx64
                 " traced=%016" PRIx64
                 ") — the observability layer must be inert\n",
                 bench_name.c_str(), spec.stack.seed, untraced_fp, traced_fp);
    std::exit(1);
  }
  Note(StrFormat("traced run matches untraced run: fingerprint %016" PRIx64
                 " (seed %" PRIu64 ")", traced_fp, spec.stack.seed));

  PrintTierBreakdown(traced.traffic.proxies);

  const proxy::ProxyStats& p = traced.traffic.proxies;
  obs::MetaList meta = {
      {"bench", bench_name},
      {"seed", std::to_string(spec.stack.seed)},
      {"requests", std::to_string(p.requests)},
      {"served_total", std::to_string(p.ServedTotal())},
      {"trace_emitted", std::to_string(traced.traces->emitted())},
  };
  if (obs::WriteTraceCsv(trace_path, traced.traces->traces(), meta)) {
    Note("wrote " + std::to_string(traced.traces->traces().size()) +
         " traces to " + trace_path + " (render with tools/trace_report)");
  }
}

}  // namespace speedkit::bench

#endif  // SPEEDKIT_BENCH_TRACE_SUPPORT_H_
