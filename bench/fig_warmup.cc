// E13 — Warm-up dynamics: cache hit ratio and latency per minute after a
// cold start, Speed Kit vs. the fixed-TTL CDN.
//
// Reproduces the deployment-experience view: Speed Kit's aggressive
// (sketch-protected) TTLs let the hierarchy warm up and then *stay* warm
// under writes, while the conservative baseline keeps re-fetching.
#include <algorithm>
#include <utility>

#include "bench/harness.h"

namespace speedkit {
namespace {

bench::RunSpec TimelineSpec(const bench::Harness& h,
                            core::SystemVariant variant) {
  bench::RunSpec spec = h.Spec();
  spec.stack.variant = variant;
  spec.stack.fixed_ttl = Duration::Seconds(60);  // conservative baseline
  spec.traffic.duration = Duration::Minutes(30);
  spec.traffic.num_clients = 30;
  spec.traffic.writes_per_sec = 2.0;
  return spec;
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "warmup");
  bench::PrintHeader(
      "E13", "Cache warm-up timeline (per-minute hit ratio & latency)",
      "deployment dynamics: how fast the hierarchy warms and whether it "
      "stays warm under writes");
  core::TrafficResult sk =
      bench::RunWorkload(TimelineSpec(h, core::SystemVariant::kSpeedKit))
          .traffic;
  core::TrafficResult cdn =
      bench::RunWorkload(TimelineSpec(h, core::SystemVariant::kFixedTtlCdn))
          .traffic;

  bench::Table table(
      "per-minute: hit ratio / stale-read rate / mean latency — speed_kit "
      "vs fixed_ttl_cdn(60s)",
      "",
      {{"minute"},
       {"sk_hit_ratio", 1, true},
       {"cdn_hit_ratio", 1, true},
       {"sk_stale_rate", 1, true},
       {"cdn_stale_rate", 1, true},
       {"sk_latency_ms", 1},
       {"cdn_latency_ms", 1}});
  bench::JsonValue rows = bench::JsonValue::Array();
  size_t minutes =
      std::max(sk.hit_ratio_timeline.num_buckets(),
               cdn.hit_ratio_timeline.num_buckets());
  for (size_t m = 0; m < minutes; ++m) {
    if (sk.hit_ratio_timeline.CountAt(m) == 0 &&
        cdn.hit_ratio_timeline.CountAt(m) == 0) {
      continue;
    }
    rows.Push(table.Add({m, sk.hit_ratio_timeline.MeanAt(m),
                         cdn.hit_ratio_timeline.MeanAt(m),
                         sk.stale_timeline.MeanAt(m),
                         cdn.stale_timeline.MeanAt(m),
                         sk.latency_ms_timeline.MeanAt(m),
                         cdn.latency_ms_timeline.MeanAt(m)}));
  }
  h.Finish(std::move(rows));
  bench::Note(
      "the baseline's nominally-higher hit ratio is bought with stale "
      "serves (cdn_stale_rate); every speed_kit hit is coherence-checked — "
      "its stale column stays ~0 at comparable latency");
  h.Trace(TimelineSpec(h, core::SystemVariant::kSpeedKit));
  return 0;
}
