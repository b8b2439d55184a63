// E8 — Protocol overhead: Cache Sketch maintenance traffic vs. Δ and
// write rate.
//
// Reproduces the protocol-overhead table: what keeping clients coherent
// costs in snapshot bytes per client per minute, how the snapshot's
// false-positive rate moves with write pressure, and how many extra
// revalidations false positives cause. The trade: small Δ = tight bound =
// more refresh traffic.
#include <utility>

#include "bench/harness.h"

namespace speedkit {
namespace {

void DeltaTrafficSweep(const bench::Harness& h, bench::JsonValue* rows) {
  bench::Table table(
      "per-client sketch traffic vs delta (fixed 120s TTL, 2 writes/s)",
      "delta_traffic",
      {{"delta_s"}, {"sketch_refreshes"}, {"snapshot_bytes"},
       {"bytes_per_client_min", 0}, {"sketch_bypasses"}, {"max_stale_s"}});
  for (int delta_s : {5, 10, 30, 60, 120}) {
    bench::RunSpec spec = h.Spec();
    spec.stack.ttl_mode = core::TtlMode::kFixed;
    spec.stack.fixed_ttl = Duration::Seconds(120);
    spec.stack.coherence.delta = Duration::Seconds(delta_s);
    bench::RunOutput out = bench::RunWorkload(spec);
    double client_minutes = static_cast<double>(spec.traffic.num_clients) *
                            spec.traffic.duration.seconds() / 60.0;
    rows->Push(table.Add(
        {delta_s, out.traffic.proxies.sketch_refreshes,
         out.sketch_snapshot_bytes,
         static_cast<double>(out.traffic.proxies.sketch_bytes) /
             client_minutes,
         out.traffic.proxies.sketch_bypasses,
         out.staleness.max_staleness.seconds()}));
  }
}

void WriteRateSweep(const bench::Harness& h, bench::JsonValue* rows) {
  bench::Table table(
      "sketch load vs write rate (delta 30s, fixed 120s TTL)", "write_rate",
      {{"writes_per_sec", 1}, {"sketch_entries"}, {"snapshot_bytes"},
       {"sketch_bypasses"}, {"revalidations_304"}});
  for (double rate : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    bench::RunSpec spec = h.Spec();
    spec.stack.ttl_mode = core::TtlMode::kFixed;
    spec.stack.fixed_ttl = Duration::Seconds(120);
    spec.stack.coherence.delta = Duration::Seconds(30);
    spec.traffic.writes_per_sec = rate;
    bench::RunOutput out = bench::RunWorkload(spec);
    rows->Push(table.Add({rate, out.sketch_entries, out.sketch_snapshot_bytes,
                          out.traffic.proxies.sketch_bypasses,
                          out.traffic.proxies.revalidations_304}));
  }
  bench::Note("sketch population ~ write rate x TTL; snapshot stays compact "
              "(bits, not keys) — the protocol's scalability argument");
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "sketch_traffic");
  bench::PrintHeader(
      "E8", "Cache Sketch maintenance traffic",
      "protocol overhead table: coherence bytes per client vs delta and "
      "write pressure");
  bench::JsonValue rows = bench::JsonValue::Array();
  DeltaTrafficSweep(h, &rows);
  WriteRateSweep(h, &rows);
  h.Finish(std::move(rows));
  // The delta=30s / fixed-120s-TTL cell both sweeps share.
  bench::RunSpec trace_spec = bench::DefaultRunSpec();
  trace_spec.stack.ttl_mode = core::TtlMode::kFixed;
  trace_spec.stack.fixed_ttl = Duration::Seconds(120);
  trace_spec.stack.coherence.delta = Duration::Seconds(30);
  h.Trace(trace_spec);
  return 0;
}
