// E4 — Requests served per layer (browser / CDN edge / origin) vs.
// popularity skew and CDN fan-out: the polyglot architecture's payoff.
//
// Reproduces the layered-hit-ratio view of the architecture: as skew
// grows, traffic collapses onto the hot head and the cache layers absorb
// it; more edges dilute per-edge hit rates (same traffic split more ways).
#include <utility>

#include "bench/harness.h"

namespace speedkit {
namespace {

void SkewSweep(const bench::Harness& h, bench::JsonValue* rows) {
  bench::Table table("share of requests per layer vs Zipf skew (4 edges)",
                     "skew_sweep",
                     {{"skew", 1},
                      {"browser_share", 1, true},
                      {"edge_share", 1, true},
                      {"origin_share", 1, true},
                      {"reval_304_share", 1, true},
                      {"p50_ms", 1}});
  for (double skew : {0.5, 0.7, 0.9, 1.1, 1.3}) {
    bench::RunSpec spec = h.Spec();
    spec.traffic.session.product_skew = skew;
    bench::RunOutput out = bench::RunWorkload(spec);
    const auto& p = out.traffic.proxies;
    double n = static_cast<double>(p.requests);
    rows->Push(table.Add({skew, p.browser_hits / n, p.edge_hits / n,
                          p.origin_fetches / n, p.revalidations_304 / n,
                          out.traffic.all_latency_us.P50() / 1e3}));
  }
}

void EdgeCountSweep(const bench::Harness& h, bench::JsonValue* rows) {
  bench::Table table("edge fan-out: per-layer shares vs number of edges",
                     "edge_count_sweep",
                     {{"edges"},
                      {"browser_share", 1, true},
                      {"edge_share", 1, true},
                      {"origin_share", 1, true},
                      {"p50_ms", 1}});
  for (int edges : {1, 2, 4, 8, 16}) {
    bench::RunSpec spec = h.Spec();
    spec.stack.cdn_edges = edges;
    // Sweep points the requested shard count cannot partition (shards must
    // divide cdn_edges — Validate rejects, it does not clamp) run
    // unsharded rather than abort the whole sweep.
    if (edges % spec.stack.shards != 0) {
      spec.stack.shards = 1;
      spec.run_threads = 1;
    }
    spec.traffic.session.product_skew = 0.9;
    bench::RunOutput out = bench::RunWorkload(spec);
    const auto& p = out.traffic.proxies;
    double n = static_cast<double>(p.requests);
    rows->Push(table.Add({edges, p.browser_hits / n, p.edge_hits / n,
                          p.origin_fetches / n,
                          out.traffic.all_latency_us.P50() / 1e3}));
  }
  bench::Note("more edges split the shared working set: edge share drops, "
              "origin share grows (classic CDN cache dilution)");
}

void CatalogSizeSweep(const bench::Harness& h, bench::JsonValue* rows) {
  bench::Table table("working-set pressure: shares vs catalog size",
                     "catalog_size_sweep",
                     {{"products"},
                      {"browser_share", 1, true},
                      {"edge_share", 1, true},
                      {"origin_share", 1, true}});
  for (size_t products : {500u, 2000u, 10000u, 50000u}) {
    bench::RunSpec spec = h.Spec();
    spec.catalog.num_products = products;
    spec.traffic.session.product_skew = 0.9;
    bench::RunOutput out = bench::RunWorkload(spec);
    const auto& p = out.traffic.proxies;
    double n = static_cast<double>(p.requests);
    rows->Push(table.Add({products, p.browser_hits / n, p.edge_hits / n,
                          p.origin_fetches / n}));
  }
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "hit_layers");
  h.RejectUnreadFlags(bench::SharedFlags::kSpec);
  bench::PrintHeader(
      "E4", "Requests served per cache layer",
      "the polyglot architecture's layered hit ratios (browser -> CDN -> "
      "origin)");
  bench::JsonValue rows = bench::JsonValue::Array();
  SkewSweep(h, &rows);
  EdgeCountSweep(h, &rows);
  CatalogSizeSweep(h, &rows);
  h.Finish(std::move(rows));
  bench::RunSpec trace_spec = bench::DefaultRunSpec();
  trace_spec.traffic.session.product_skew = 0.9;
  h.Trace(trace_spec);
  return 0;
}
