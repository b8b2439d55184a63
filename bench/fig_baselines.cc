// E9 — System comparison: Speed Kit vs. the designs it replaces.
//
// Reproduces the paper's "radically different approach" claim as a
// four-way comparison under identical traffic:
//   speed_kit          sketch coherence + estimated TTLs + CDN + browser
//   fixed_ttl_cdn      traditional CDN (the paper's strawman)
//   no_caching         correctness by construction, latency by punishment
//   pure_invalidation  purge-only coherence without browser caching
// The shape: only speed_kit gets low latency AND bounded staleness AND
// low origin load simultaneously.
//
// Monte-Carlo mode: every (write rate, system) cell runs --seeds
// independent trials fanned out over --threads workers; the table shows
// the seed-pooled percentiles with across-seed mean±stddev for the hit
// rate, and --json dumps the full distribution per cell.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace speedkit {
namespace {

constexpr core::SystemVariant kVariants[] = {
    core::SystemVariant::kSpeedKit, core::SystemVariant::kFixedTtlCdn,
    core::SystemVariant::kNoCaching, core::SystemVariant::kPureInvalidation};
constexpr double kWriteRates[] = {0.5, 2.0, 8.0};

double HitRate(const bench::RunOutput& out) {
  return out.traffic.BrowserHitRatio() + out.traffic.EdgeHitRatio();
}

void Run(bench::Harness& h) {
  std::vector<bench::RunSpec> configs;
  for (double writes_per_sec : kWriteRates) {
    for (core::SystemVariant variant : kVariants) {
      bench::RunSpec spec = bench::DefaultRunSpec();
      spec.stack.variant = variant;
      spec.stack.fixed_ttl = Duration::Seconds(120);
      spec.traffic.writes_per_sec = writes_per_sec;
      configs.push_back(spec);
    }
  }
  const bench::SweepResult& sweep =
      h.Sweep(&configs, /*default_seeds=*/8);
  bench::JsonValue rows = bench::JsonValue::Array();

  size_t config_index = 0;
  for (double writes_per_sec : kWriteRates) {
    char section[64];
    std::snprintf(section, sizeof(section), "%.1f writes/s, %zu seeds",
                  writes_per_sec, sweep.outputs.front().size());
    bench::Table table(section, "",
                       {{.key = "writes_per_sec", .json_only = true},
                        {.key = "system", .width = 18},
                        {"p50_ms", 1},
                        {"p99_ms", 1},
                        {"stale_rate", 4, true},
                        {"max_stale_s"},
                        {"origin_requests"},
                        {.key = "requests", .json_only = true},
                        {"hit_rate", 1, true},
                        {.key = "p50_ms_per_seed", .json_only = true},
                        {.key = "p99_ms_per_seed", .json_only = true},
                        {.key = "stale_rate_per_seed", .json_only = true}});
    for (core::SystemVariant variant : kVariants) {
      const std::vector<bench::RunOutput>& runs = sweep.outputs[config_index];
      bench::RunOutput merged = bench::MergeRuns(runs);
      bench::SeedStats hit = bench::SeedStatsOf(runs, HitRate);
      bench::SeedStats p50 = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.api_latency_us.P50() / 1e3;
      });
      bench::SeedStats p99 = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.api_latency_us.P99() / 1e3;
      });
      bench::SeedStats stale = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.staleness.StaleFraction();
      });
      rows.Push(table.Add(
          {writes_per_sec, std::string(core::SystemVariantName(variant)),
           merged.traffic.api_latency_us.P50() / 1e3,
           merged.traffic.api_latency_us.P99() / 1e3,
           merged.staleness.StaleFraction(),
           merged.staleness.max_staleness.seconds(), merged.origin_requests,
           merged.traffic.proxies.requests, bench::JsonSeedStats(hit),
           bench::JsonSeedStats(p50), bench::JsonSeedStats(p99),
           bench::JsonSeedStats(stale)}));
      config_index++;
    }
  }

  h.Finish(std::move(rows));
  // speed_kit at the lowest write rate: the canonical happy-path trace.
  h.Trace(configs[0]);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::bench::Harness h(argc, argv, "baselines");
  speedkit::bench::PrintHeader(
      "E9", "Baseline comparison: latency, staleness, origin load",
      "the paper's positioning against traditional CDNs, no caching, and "
      "pure invalidation");
  speedkit::Run(h);
  speedkit::bench::Note(
      "expected shape: speed_kit ~matches fixed_ttl_cdn latency with "
      "near-zero staleness; no_caching has zero staleness at ~10x latency; "
      "pure_invalidation bounds staleness but forfeits browser hits");
  return 0;
}
