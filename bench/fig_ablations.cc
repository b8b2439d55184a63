// E12 — Ablations of the design choices DESIGN.md calls out:
//   A1  per-key TTL estimator vs one global fixed TTL (interaction with
//       sketch load and revalidation traffic)
//   A2  counting Bloom filter at the server vs rebuilding the snapshot
//       filter from the exact key set on every snapshot
//   A3  segment-scoped caching of personalized blocks vs treating every
//       personalized block as user-scoped
//   A4  stale-while-revalidate on vs off (latency of expired-entry hits)
//   A5  asset optimization on vs off (page weight & load time, mobile)
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "core/stack.h"
#include "sketch/counting_bloom.h"

namespace speedkit {
namespace {

using Clock = std::chrono::steady_clock;

void AblationTtlEstimator(const bench::Harness& h, bench::JsonValue* rows) {
  bench::Table table(
      "A1: estimator vs global fixed TTL (heterogeneous write rates)",
      "a1_ttl_estimator",
      {{.key = "policy", .width = 14},
       {"hit_rate", 1, true},
       {"stale_rate", 4, true},
       {"sketch_entries"},
       {"revalidations_304"},
       {"p50_ms", 1}});
  for (const std::string& policy : {"estimator", "fixed-120s"}) {
    bench::RunSpec spec = h.Spec();
    // Strong write skew: hot objects churn fast, tail barely changes —
    // exactly where one global TTL must be wrong for someone.
    spec.traffic.write_skew = 1.2;
    spec.traffic.writes_per_sec = 4.0;
    if (policy == "estimator") {
      spec.stack.ttl_mode = core::TtlMode::kEstimator;
      spec.stack.estimator.max_ttl = Duration::Seconds(3600);
    } else {
      spec.stack.ttl_mode = core::TtlMode::kFixed;
      spec.stack.fixed_ttl = Duration::Seconds(120);
    }
    bench::RunOutput out = bench::RunWorkload(spec);
    rows->Push(table.Add(
        {policy, out.traffic.BrowserHitRatio() + out.traffic.EdgeHitRatio(),
         out.staleness.StaleFraction(), out.sketch_entries,
         out.traffic.proxies.revalidations_304,
         out.traffic.api_latency_us.P50() / 1e3}));
  }
  bench::Note("the estimator gives slow-changing tail objects long TTLs "
              "(more hits) while keeping hot objects short (fewer sketch "
              "entries per write)");
}

void AblationCountingFilter(bench::JsonValue* rows) {
  bench::PrintSection(
      "A2: snapshot cost — counting filter materialize vs rebuild from key "
      "set (20k tracked keys, 1% fpr sizing)");
  constexpr size_t kKeys = 20000;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("https://shop.example.com/api/records/p" +
                   std::to_string(i));
  }
  size_t bits = sketch::BloomFilter::OptimalBits(kKeys, 0.01);
  int k = sketch::BloomFilter::OptimalHashes(bits, kKeys);

  sketch::CountingBloomFilter cbf(bits, k);
  for (const auto& key : keys) cbf.Add(key);

  constexpr int kRounds = 200;
  auto t0 = Clock::now();
  size_t bits_set = 0;
  for (int r = 0; r < kRounds; ++r) {
    bits_set += cbf.Materialize().PopCount();
  }
  double materialize_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
      kRounds;

  auto t1 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    sketch::BloomFilter rebuilt(bits, k);
    for (const auto& key : keys) rebuilt.Add(key);
    bits_set += rebuilt.PopCount();
  }
  double rebuild_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t1).count() /
      kRounds;

  (void)bits_set;
  bench::Table table(
      "", "a2_counting_filter",
      {{"materialize_us", 0}, {"rebuild_us", 0}, {"speedup", 1}});
  rows->Push(table.Add(
      {materialize_us, rebuild_us, rebuild_us / materialize_us}));
  bench::Note("the server already keeps every tracked key in its exact "
              "expiry map, which publication rebuilds from once per key-set "
              "change; a CBF would be a second copy of that set");
}

void AblationSegmentCaching(bench::JsonValue* rows) {
  bench::Table table(
      "A3: segment-scoped caching on vs off (6 personalized blocks/page, "
      "32 cohorts, 300 users)",
      "a3_segment_caching",
      {{"segment_caching"}, {"hit_share", 1, true}, {"mean_latency_ms"}});
  // Off = every personalized block is treated as user-scoped (but still
  // GDPR: template join on-device).
  for (bool segment_caching : {true, false}) {
    core::StackConfig config;
    core::SpeedKitStack stack(config);
    personalization::PageTemplate tpl;
    tpl.url = "https://shop.example.com/pages/home";
    for (int i = 0; i < 6; ++i) {
      tpl.blocks.push_back({"blk" + std::to_string(i),
                            segment_caching
                                ? personalization::BlockScope::kSegment
                                : personalization::BlockScope::kUser,
                            2048});
    }
    personalization::Segmenter segmenter(32);
    uint64_t hits = 0;
    uint64_t fetches = 0;
    int64_t latency_us = 0;
    for (int u = 0; u < 300; ++u) {
      personalization::PiiVault vault(9000 + static_cast<uint64_t>(u));
      auto client = stack.MakeClient(9000 + static_cast<uint64_t>(u));
      client->AttachVault(&vault);
      for (const auto& block : tpl.blocks) {
        proxy::BlockResult r = client->FetchBlock(tpl, block, segmenter);
        fetches++;
        latency_us += r.latency.micros();
        if (r.source == proxy::ServedFrom::kBrowserCache ||
            r.source == proxy::ServedFrom::kEdgeCache) {
          hits++;
        }
      }
    }
    rows->Push(table.Add(
        {segment_caching,
         static_cast<double>(hits) / static_cast<double>(fetches),
         static_cast<double>(latency_us) / static_cast<double>(fetches) /
             1e3}));
  }
  bench::Note("segment_caching=false (template join for everything) can "
              "even beat segment caching on pure delivery cost, because one "
              "template is shared by all cohorts — but it only works for "
              "content the device can assemble from its vault; segment "
              "scope exists for server-computed cohort content "
              "(recommendations, rankings) that has no client-side join");
}

void AblationSwr(const bench::Harness& h, bench::JsonValue* rows) {
  bench::Table table(
      "A4: stale-while-revalidate on vs off (fixed 60s TTLs, mostly-read)",
      "a4_swr",
      {{"swr"},
       {"mean_ms", 1},
       {"p99_ms", 1},
       {"swr_serves"},
       {"stale_rate", 4, true},
       {"max_stale_s"}});
  for (bool swr_on : {true, false}) {
    bench::RunSpec spec = h.Spec();
    spec.stack.ttl_mode = core::TtlMode::kFixed;
    spec.stack.fixed_ttl = Duration::Seconds(60);
    spec.traffic.writes_per_sec = 1.0;
    proxy::ProxyConfig pc;  // speed-kit defaults
    pc.stale_while_revalidate = swr_on;
    spec.traffic.proxy_config = &pc;
    bench::RunOutput out = bench::RunWorkload(spec);
    rows->Push(table.Add({swr_on, out.traffic.api_latency_us.Mean() / 1e3,
                          out.traffic.api_latency_us.P99() / 1e3,
                          out.traffic.proxies.swr_serves,
                          out.staleness.StaleFraction(),
                          out.staleness.max_staleness.seconds()}));
  }
  bench::Note("every swr_serve is an expired-entry revalidation moved off "
              "the critical path (mean drops, tail unchanged) — and the "
              "staleness columns must not move: flagged keys never take "
              "the SWR path, and the ExpiryBook horizon covers the window");
}

void AblationAssetOptimization(bench::JsonValue* rows) {
  bench::Table table(
      "A5: asset optimization on vs off — cold image-heavy page, mobile "
      "downlink (~1.5 Mbit/s)",
      "a5_asset_optimization",
      {{"optimize"}, {"page_bytes"}, {"transfer_ms", 0}, {"bytes_saved"}});
  uint64_t baseline_bytes = 0;
  for (bool optimize : {false, true}) {
    core::StackConfig config;
    config.network.client_edge =
        sim::LinkSpec{Duration::Millis(60), 0.0, 2.0e5};
    config.network.edge_origin =
        sim::LinkSpec{Duration::Millis(80), 0.0, 12.0e6};
    core::SpeedKitStack stack(config);
    proxy::ProxyConfig pc = stack.DefaultProxyConfig();
    pc.optimize_assets = optimize;
    auto client = stack.MakeClient(pc, 1);
    uint64_t bytes = 0;
    int64_t total_us = 0;
    // A product page's 24 images, fetched cold.
    for (int i = 0; i < 24; ++i) {
      proxy::FetchResult r = client->Fetch(
          "https://shop.example.com/assets/img-" + std::to_string(i));
      bytes += r.response.body.size();
      total_us += r.latency.micros();
    }
    if (!optimize) baseline_bytes = bytes;
    rows->Push(table.Add({optimize, bytes, total_us / 1e3,
                          static_cast<int64_t>(baseline_bytes - bytes)}));
  }
  bench::Note("the optimization service's transcoded variants (~45% fewer "
              "bytes) cut both page weight and transfer time on the "
              "bandwidth-bound mobile link — E5's mobile rows show the "
              "end-to-end effect");
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "ablations");
  bench::PrintHeader(
      "E12",
      "Ablations: TTL estimator, counting filter, segment caching, SWR, "
      "asset optimization",
      "the design choices DESIGN.md calls out");
  bench::JsonValue rows = bench::JsonValue::Array();
  AblationTtlEstimator(h, &rows);
  AblationCountingFilter(&rows);
  AblationSegmentCaching(&rows);
  AblationSwr(h, &rows);
  AblationAssetOptimization(&rows);
  h.Finish(std::move(rows));
  // A1's estimator arm: the full speed_kit feature set under write skew.
  bench::RunSpec trace_spec = bench::DefaultRunSpec();
  trace_spec.traffic.write_skew = 1.2;
  trace_spec.traffic.writes_per_sec = 4.0;
  trace_spec.stack.estimator.max_ttl = Duration::Seconds(3600);
  h.Trace(trace_spec);
  return 0;
}
