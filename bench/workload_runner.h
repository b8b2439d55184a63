// Shared end-to-end run recipe for the traffic-driven experiments
// (E2/E3/E4/E8/E9): build a stack variant, populate the catalog, register
// category listings with origin + pipeline, run session traffic with a
// Poisson write process, and hand back everything the tables print.
//
// Sharded execution (E15): when spec.stack.shards > 1, RunWorkload builds
// a ShardedFleet instead of one stack — every shard replays the identical
// recipe over its slice of the client population on up to spec.run_threads
// threads — and merges the per-shard outputs in fixed shard order. The
// merged RunOutput is a pure function of (spec, shards): bit-identical for
// ANY run_threads (FingerprintRun is the check the tests and the E15
// harness gate on).
#ifndef SPEEDKIT_BENCH_WORKLOAD_RUNNER_H_
#define SPEEDKIT_BENCH_WORKLOAD_RUNNER_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/stack.h"
#include "core/traffic.h"

namespace speedkit::bench {

struct RunSpec {
  core::StackConfig stack;
  workload::CatalogConfig catalog;
  core::TrafficConfig traffic;
  uint64_t catalog_seed = 1;
  // Arms the staleness tracker's Δ-bound at (stack.delta + margin): any
  // non-excused read staler than that counts as a delta violation (E14).
  // Duration::Max() leaves the bound disarmed, as before this knob existed.
  Duration delta_bound_margin = Duration::Max();
  // Worker threads executing the shards of ONE run (only meaningful with
  // stack.shards > 1; never affects results, only wall-clock). Distinct
  // from the multi-seed parallelism of parallel_runner.h — see
  // Harness::Apply (harness.h) for how harnesses divide a --threads budget.
  int run_threads = 1;
};

struct RunOutput {
  core::TrafficResult traffic;
  coherence::StalenessReport staleness;
  Histogram staleness_us;
  uint64_t origin_requests = 0;
  size_t sketch_entries = 0;
  uint64_t sketch_snapshot_bytes = 0;
  invalidation::PipelineStats pipeline;  // zero for pipeline-less variants
  cache::EdgeFaultStats edge_faults;     // degraded-mode accounting (E14)

  // Observability captures — non-null only when spec.stack.obs switched
  // them on AND the run was unsharded (a sharded run has one registry/sink
  // per shard; captures stay per-run artifacts, the merged numbers come
  // from the stats structs above). MergeRuns deliberately drops them.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::InMemoryTraceSink> traces;
};

inline RunSpec DefaultRunSpec() {
  RunSpec spec;
  spec.catalog.num_products = 2000;
  spec.catalog.num_categories = 20;
  spec.traffic.num_clients = 25;
  spec.traffic.duration = Duration::Minutes(20);
  spec.traffic.writes_per_sec = 2.0;
  spec.traffic.write_skew = 0.8;
  return spec;
}

// The per-stack recipe body: populate, register queries, settle, run
// traffic, snapshot stats. `catalog` is shared and read-only (Populate
// writes into the STACK's store, not the catalog). In a sharded fleet
// every shard executes this identically — each one holds the full store
// replica and write stream; only the client population is partitioned.
inline RunOutput RunOneStack(core::SpeedKitStack& stack,
                             const workload::Catalog& catalog,
                             const RunSpec& spec) {
  if (spec.delta_bound_margin != Duration::Max()) {
    stack.staleness().SetDeltaBound(spec.stack.coherence.delta +
                                   spec.delta_bound_margin);
  }
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    stack.origin().RegisterQuery(catalog.CategoryQuery(c));
  }
  // Settle population writes out of the sketch before traffic starts.
  stack.Advance(Duration::Seconds(5));

  core::TrafficSimulation sim(&stack, &catalog, spec.traffic);
  RunOutput out;
  out.traffic = sim.Run();
  out.staleness = stack.staleness().report();
  out.staleness_us = stack.staleness().staleness_us();
  out.origin_requests = stack.origin().stats().requests;
  if (stack.sketch() != nullptr) {
    out.sketch_entries = stack.sketch()->entries();
    out.sketch_snapshot_bytes = stack.coherence_protocol()
                                    .publication()
                                    .Serialized(stack.clock().Now())
                                    ->size();
  }
  if (stack.pipeline() != nullptr) {
    out.pipeline = stack.pipeline()->stats();
  }
  out.edge_faults = stack.cdn().TotalFaultStats();
  if (stack.metrics() != nullptr) {
    stack.CollectMetrics(&out.traffic.proxies, stack.metrics().get());
    out.metrics = stack.metrics();
  }
  out.traces = stack.trace_sink();
  return out;
}

// Pools runs into one RunOutput, for a config's seeds (parallel_runner.h)
// and for a run's shards alike. Counters sum, histograms merge, gauges
// (sketch entry count / snapshot size) take the max; edge_faults sum
// correctly across shards because shards own disjoint edge sets. Merge
// order is the vector order — fixed by the caller — so the result is
// deterministic. Observability captures are per stack and do not compose,
// so the merged output carries none.
inline RunOutput MergeRuns(const std::vector<RunOutput>& runs) {
  RunOutput merged;
  for (const RunOutput& run : runs) {
    merged.traffic.Merge(run.traffic);
    merged.staleness.Merge(run.staleness);
    merged.staleness_us.Merge(run.staleness_us);
    merged.origin_requests += run.origin_requests;
    merged.pipeline += run.pipeline;
    merged.edge_faults += run.edge_faults;
    merged.sketch_entries = std::max(merged.sketch_entries, run.sketch_entries);
    merged.sketch_snapshot_bytes =
        std::max(merged.sketch_snapshot_bytes, run.sketch_snapshot_bytes);
  }
  return merged;
}

// One sharded run: shards execute concurrently on up to spec.run_threads
// workers. Each stores its result once, at the end of its run, so adjacent
// elements of `parts` need no padding; the merge runs in shard order after
// the workers join.
inline RunOutput RunShardedWorkload(const RunSpec& spec) {
  workload::Catalog catalog(spec.catalog, Pcg32(spec.catalog_seed));
  core::ShardedFleet fleet(spec.stack);
  std::vector<RunOutput> parts(static_cast<size_t>(fleet.shards()));
  core::ForEachShard(fleet.shards(), spec.run_threads, [&](int s) {
    parts[static_cast<size_t>(s)] = RunOneStack(fleet.shard(s), catalog, spec);
  });
  return MergeRuns(parts);
}

inline RunOutput RunWorkload(const RunSpec& spec) {
  if (spec.stack.shards > 1) return RunShardedWorkload(spec);
  core::SpeedKitStack stack(spec.stack);
  workload::Catalog catalog(spec.catalog, Pcg32(spec.catalog_seed));
  return RunOneStack(stack, catalog, spec);
}

// Structural fingerprint of a run's merged numbers: every load-bearing
// counter plus full-distribution histogram fingerprints. Two runs
// fingerprint equal iff they produced the same results — the invariance
// gate for "thread count never changes numbers" (tests/bench and E15).
inline uint64_t FingerprintRun(const RunOutput& out) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  const proxy::ProxyStats& p = out.traffic.proxies;
  mix(p.requests);
  mix(p.browser_hits);
  mix(p.edge_hits);
  mix(p.origin_fetches);
  mix(p.revalidations_304);
  mix(p.revalidations_200);
  mix(p.sketch_bypasses);
  mix(p.offline_serves);
  mix(p.errors);
  mix(p.sketch_refreshes);
  mix(p.sketch_bytes);
  mix(p.swr_serves);
  mix(p.bytes_from_browser_cache);
  mix(p.bytes_over_network);
  mix(p.timeouts);
  mix(p.retries);
  mix(p.fallback_serves);
  mix(p.background_revalidations);
  mix(p.background_304s);
  mix(p.background_200s);
  mix(p.background_errors);
  mix(p.background_bytes);
  mix(p.latency_browser_us.Fingerprint());
  mix(p.latency_edge_us.Fingerprint());
  mix(p.latency_origin_us.Fingerprint());
  mix(p.latency_offline_us.Fingerprint());
  mix(p.latency_error_us.Fingerprint());
  mix(p.latency_ok_us.Fingerprint());
  mix(p.latency_degraded_us.Fingerprint());
  mix(out.traffic.page_views);
  mix(out.traffic.writes_applied);
  mix(out.traffic.api_latency_us.Fingerprint());
  mix(out.traffic.all_latency_us.Fingerprint());
  mix(out.staleness.reads);
  mix(out.staleness.stale_reads);
  mix(out.staleness.clamped);
  mix(static_cast<uint64_t>(out.staleness.max_staleness.micros()));
  mix(out.staleness.delta_violations);
  mix(out.staleness.excused_stale_reads);
  mix(out.staleness_us.Fingerprint());
  mix(out.origin_requests);
  mix(out.pipeline.writes_seen);
  mix(out.pipeline.keys_invalidated);
  mix(out.pipeline.purges_scheduled);
  mix(out.pipeline.purges_effective);
  mix(out.pipeline.purges_dropped);
  mix(out.pipeline.purges_delayed);
  mix(out.edge_faults.down_rejects);
  mix(out.edge_faults.purges_dropped);
  mix(out.edge_faults.purges_delayed);
  mix(out.edge_faults.purge_delay_us.Fingerprint());
  mix(out.sketch_entries);
  mix(out.sketch_snapshot_bytes);
  return h;
}

}  // namespace speedkit::bench

#endif  // SPEEDKIT_BENCH_WORKLOAD_RUNNER_H_
