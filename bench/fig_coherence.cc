// E18 — Coherence modes head-to-head on the multi-key cart workload:
// Δ-atomic (Cache Sketch), serializable (version-validated read-only
// transactions) and fixed-TTL, all behind the same SpeedKit stack via
// --coherence / StackConfig::coherence.
//
// Each mode runs identical checkout traffic (K distinct product reads per
// transaction at one instant, Poisson writes underneath) and every
// committed transaction is audited against the version authority: did the
// reads observe a consistent snapshot? The table reports anomaly, abort
// and retry rates plus per-tier latency — the price each protocol pays
// for its guarantee.
//
// Self-gating (CI): exits 1 unless Δ-atomic and serializable commit with
// ZERO anomalies while fixed-TTL shows a nonzero anomaly baseline (if the
// baseline were zero the workload wouldn't be probing coherence at all).
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "bench/harness.h"
#include "core/cart_traffic.h"
#include "workload/catalog.h"

namespace speedkit {
namespace {

struct E18Params {
  size_t clients = 20;
  Duration duration = Duration::Minutes(10);
  size_t keys_per_txn = 4;
  double writes_per_sec = 4.0;
};

struct ModeOutcome {
  core::CartTrafficResult cart;
  coherence::StalenessReport staleness;
};

ModeOutcome RunMode(coherence::CoherenceMode mode, const E18Params& params) {
  core::StackConfig config;
  config.variant = core::SystemVariant::kSpeedKit;
  config.coherence.mode = mode;
  config.coherence.delta = Duration::Seconds(10);
  core::SpeedKitStack stack(config);

  workload::CatalogConfig catalog_config;
  catalog_config.num_products = 2000;
  catalog_config.num_categories = 20;
  workload::Catalog catalog(catalog_config, Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  // Settle population writes out of the sketch before checkouts start.
  stack.Advance(Duration::Seconds(5));

  core::CartTrafficConfig traffic;
  traffic.num_clients = params.clients;
  traffic.duration = params.duration;
  traffic.keys_per_txn = params.keys_per_txn;
  traffic.writes_per_sec = params.writes_per_sec;

  ModeOutcome out;
  core::CartTrafficSimulation sim(&stack, &catalog, traffic);
  out.cart = sim.Run();
  out.staleness = stack.staleness().report();
  return out;
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "coherence");
  E18Params params;
  params.clients = static_cast<size_t>(h.flags().GetInt("clients", 20));
  params.duration = Duration::Minutes(h.flags().GetInt("duration", 10));
  params.keys_per_txn = static_cast<size_t>(h.flags().GetInt("keys", 4));
  params.writes_per_sec = h.flags().GetDouble("writes-per-sec", 4.0);

  bench::PrintHeader(
      "E18", "Pluggable coherence modes on the cart workload",
      "anomaly/abort/latency trade-off of delta_atomic vs serializable vs "
      "fixed_ttl behind one CoherenceProtocol interface");

  const coherence::CoherenceMode modes[] = {
      coherence::CoherenceMode::kDeltaAtomic,
      coherence::CoherenceMode::kSerializable,
      coherence::CoherenceMode::kFixedTtl,
  };

  bench::Table table("per-mode transaction outcomes", "modes",
                     {{.key = "mode", .width = 14},
                      {"txns_attempted"},
                      {"txns_committed"},
                      {.key = "txns_aborted", .json_only = true},
                      {"txn_retries"},
                      {.key = "anomalies", .json_only = true},
                      {"anomaly_rate", 2, true},
                      {"abort_rate", 1, true},
                      {"stale_read_fraction", 2, true},
                      {.key = "txn_validations", .json_only = true},
                      {.key = "txn_validation_bytes", .json_only = true},
                      {.key = "sketch_refreshes", .json_only = true},
                      {.key = "sketch_bytes", .json_only = true},
                      {"p50_txn_ms", 1},
                      {.key = "p99_txn_ms", .json_only = true},
                      {.key = "p50_browser_ms", .json_only = true},
                      {.key = "p50_edge_ms", .json_only = true},
                      {.key = "p50_origin_ms", .json_only = true},
                      {.key = "writes_applied", .json_only = true}});
  bench::JsonValue rows = bench::JsonValue::Array();
  std::string retries_note = "retries per transaction:";
  ModeOutcome outcomes[3];
  for (int m = 0; m < 3; ++m) {
    outcomes[m] = RunMode(modes[m], params);
    const core::CartTrafficResult& c = outcomes[m].cart;
    const proxy::ProxyStats& p = c.proxies;
    std::string mode(CoherenceModeName(modes[m]));
    rows.Push(table.Add(
        {mode, c.txns_attempted, c.txns_committed, c.txns_aborted,
         c.txn_retries, c.anomalies, c.AnomalyRate(), c.AbortRate(),
         outcomes[m].staleness.StaleFraction(), p.txn_validations,
         p.txn_validation_bytes, p.sketch_refreshes, p.sketch_bytes,
         c.txn_latency_us.P50() / 1e3, c.txn_latency_us.P99() / 1e3,
         p.latency_browser_us.P50() / 1e3, p.latency_edge_us.P50() / 1e3,
         p.latency_origin_us.P50() / 1e3, c.writes_applied}));
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s %.3f", mode.c_str(),
                  c.txns_attempted == 0
                      ? 0.0
                      : static_cast<double>(c.txn_retries) /
                            static_cast<double>(c.txns_attempted));
    retries_note += buf;
  }
  bench::Note(retries_note);
  bench::Note(
      "delta_atomic buys zero anomalies with sketch refresh bytes; "
      "serializable buys them with a validation RTT and occasional "
      "retries/aborts; fixed_ttl pays nothing and reads anomalies");

  h.Finish(std::move(rows));

  // The gate: both coherent modes must commit anomaly-free, and the
  // fixed-TTL baseline must actually exhibit anomalies (otherwise the
  // workload is too gentle to certify anything).
  const core::CartTrafficResult& delta = outcomes[0].cart;
  const core::CartTrafficResult& serializable = outcomes[1].cart;
  const core::CartTrafficResult& fixed = outcomes[2].cart;
  bool ok = true;
  if (delta.anomalies != 0) {
    std::fprintf(stderr, "E18 gate: delta_atomic committed %llu anomalies\n",
                 static_cast<unsigned long long>(delta.anomalies));
    ok = false;
  }
  if (serializable.anomalies != 0) {
    std::fprintf(stderr, "E18 gate: serializable committed %llu anomalies\n",
                 static_cast<unsigned long long>(serializable.anomalies));
    ok = false;
  }
  if (fixed.anomalies == 0) {
    std::fprintf(stderr,
                 "E18 gate: fixed_ttl showed no anomalies — workload no "
                 "longer probes coherence\n");
    ok = false;
  }
  if (delta.txns_committed == 0 || serializable.txns_committed == 0) {
    std::fprintf(stderr, "E18 gate: a coherent mode committed nothing\n");
    ok = false;
  }
  if (!ok) return 1;
  std::printf("\nE18 gate OK: 0 anomalies (delta_atomic, serializable), "
              "%llu anomalies (fixed_ttl baseline)\n",
              static_cast<unsigned long long>(fixed.anomalies));
  return 0;
}
