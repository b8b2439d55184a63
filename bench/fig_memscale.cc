// E16 — Fleet memory scaling: bytes/client and req/sec vs. fleet size.
//
// The million-client question: what does ONE simulated Speed Kit client
// cost in resident memory once the fleet is large enough that per-client
// fixed costs dominate? This harness sweeps --clients (default
// 1e3/1e4/1e5; the full E16 figure adds 1e6) through the standard traffic
// recipe and reports, per point:
//   * wall-clock requests/sec (the scheduler + pool hot path);
//   * heap bytes/client right after fleet construction (the arena's
//     per-client floor) and after the run (with warm browser caches);
//   * peak process RSS, and the pool's spill accounting (clients frozen,
//     resident blob bytes).
//
// Gates:
//   * memory — with a budget configured (--max-bytes-per-client or the
//     SPEEDKIT_E16_MAX_BYTES_PER_CLIENT env var; CI sets one), the
//     largest point's after-run bytes/client must stay under it, or the
//     process exits 1. Smaller points are reported but not gated: fixed
//     stack costs (catalog, origin store, CDN) only amortize to noise at
//     scale. The gate auto-skips when the heap probe is unavailable
//     (non-glibc).
//   * spill neutrality — at the smallest point the run is repeated with
//     cold-client spill forced ON and forced OFF; both must produce the
//     same result fingerprint, or the process exits 1. Freeze/thaw round
//     trips are designed to be lossless; this gate keeps them that way.
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/mem_probe.h"

namespace speedkit {
namespace {

struct MemPoint {
  size_t clients = 0;
  double wall_seconds = 0;
  double requests_per_sec = 0;
  uint64_t requests = 0;
  uint64_t fingerprint = 0;
  bool heap_probe_ok = false;
  double construct_bytes_per_client = 0;
  double after_run_bytes_per_client = 0;
  uint64_t peak_rss_bytes = 0;
  proxy::ClientPoolSpillStats spill;
};

bench::RunSpec MemScaleSpec(coherence::CoherenceMode mode, size_t clients,
                            double duration_minutes, proxy::SpillMode spill) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.traffic.num_clients = clients;
  spec.traffic.duration = Duration::Minutes(duration_minutes);
  spec.traffic.pool.spill = spill;
  spec.stack.coherence.mode = mode;
  return spec;
}

// The RunOneStack recipe with memory probes between its phases: the probe
// placement is the only difference, so results (and fingerprints) match a
// plain RunWorkload of the same spec.
MemPoint Measure(const bench::RunSpec& spec) {
  MemPoint point;
  point.clients = spec.traffic.num_clients;
  point.heap_probe_ok = bench::HeapProbeAvailable();
  const uint64_t heap0 = bench::HeapBytesInUse();

  core::SpeedKitStack stack(spec.stack);
  workload::Catalog catalog(spec.catalog, Pcg32(spec.catalog_seed));
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    stack.origin().RegisterQuery(catalog.CategoryQuery(c));
  }
  stack.Advance(Duration::Seconds(5));

  core::TrafficSimulation sim(&stack, &catalog, spec.traffic);
  const uint64_t heap_built = bench::HeapBytesInUse();

  auto t0 = std::chrono::steady_clock::now();
  bench::RunOutput out;
  out.traffic = sim.Run();
  point.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const uint64_t heap_after = bench::HeapBytesInUse();

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
  if (stack.pipeline() != nullptr) out.pipeline = stack.pipeline()->stats();
  out.edge_faults = stack.cdn().TotalFaultStats();

  point.requests = out.traffic.proxies.requests;
  point.requests_per_sec =
      point.wall_seconds > 0
          ? static_cast<double>(point.requests) / point.wall_seconds
          : 0.0;
  point.fingerprint = bench::FingerprintRun(out);
  const double n = static_cast<double>(point.clients);
  point.construct_bytes_per_client =
      heap_built > heap0 ? static_cast<double>(heap_built - heap0) / n : 0.0;
  point.after_run_bytes_per_client =
      heap_after > heap0 ? static_cast<double>(heap_after - heap0) / n : 0.0;
  point.peak_rss_bytes = bench::PeakRssBytes();
  point.spill = sim.SpillStats();
  return point;
}

struct GateResult {
  bool ok = true;
  std::string status;  // "passed" / "failed" / "skipped: ..." / "off"
};

GateResult CheckBudget(const MemPoint& largest, double budget) {
  GateResult gate;
  if (budget <= 0) {
    gate.status = "off";
    return gate;
  }
  if (!largest.heap_probe_ok) {
    gate.status = "skipped: heap probe unavailable on this libc";
    return gate;
  }
  char buf[112];
  std::snprintf(buf, sizeof(buf),
                "%.0f bytes/client after run at %zu clients vs budget %.0f",
                largest.after_run_bytes_per_client, largest.clients, budget);
  if (largest.after_run_bytes_per_client <= budget) {
    gate.status = std::string("passed: ") + buf;
  } else {
    gate.ok = false;
    gate.status = std::string("failed: ") + buf;
  }
  return gate;
}

// Spill-neutrality: forced-on and forced-off runs of the same spec must
// fingerprint identically.
GateResult CheckSpillNeutral(coherence::CoherenceMode mode, size_t clients,
                             double duration_minutes) {
  MemPoint on = Measure(
      MemScaleSpec(mode, clients, duration_minutes, proxy::SpillMode::kOn));
  MemPoint off = Measure(
      MemScaleSpec(mode, clients, duration_minutes, proxy::SpillMode::kOff));
  GateResult gate;
  char buf[112];
  std::snprintf(buf, sizeof(buf),
                "spill-on %016" PRIx64 " vs spill-off %016" PRIx64
                " at %zu clients (%" PRIu64 " freezes)",
                on.fingerprint, off.fingerprint, clients, on.spill.freezes);
  if (on.fingerprint == off.fingerprint) {
    gate.status = std::string("passed: ") + buf;
  } else {
    gate.ok = false;
    gate.status = std::string("failed: ") + buf;
  }
  return gate;
}

double EnvBytesBudget() {
  const char* env = std::getenv("SPEEDKIT_E16_MAX_BYTES_PER_CLIENT");
  return env == nullptr ? 0.0 : std::strtod(env, nullptr);
}

std::vector<size_t> ParseClientList(const std::string& text) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    long long v = std::atoll(text.substr(pos, comma - pos).c_str());
    if (v > 0) out.push_back(static_cast<size_t>(v));
    pos = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "memscale");
  std::vector<size_t> client_counts =
      ParseClientList(h.flags().GetString("clients", "1000,10000,100000"));
  double duration_min = h.flags().GetDouble("duration", 2.0);
  double budget =
      h.flags().GetDouble("max-bytes-per-client", EnvBytesBudget());
  const coherence::CoherenceMode mode = h.coherence();

  bench::PrintHeader(
      "E16", "Fleet memory scaling and bytes-per-client gate",
      "per-client memory cost of the pooled fleet as the population grows "
      "1e3 -> 1e6; the largest point must stay under the configured "
      "bytes/client budget, and cold-client spill must not change results");

  bench::Table table(
      "bytes/client vs fleet size (" +
          std::to_string(static_cast<int>(duration_min)) +
          " sim-minutes, spill auto)",
      "",
      {{"clients"},
       {"wall_seconds"},
       {.key = "requests", .json_only = true},
       {"requests_per_sec", 0},
       {"construct_bytes_per_client", 0},
       {"after_run_bytes_per_client", 0},
       {"peak_rss_bytes"},
       {.key = "spill_freezes", .json_only = true},
       {.key = "spill_thaws", .json_only = true},
       {"frozen_clients"},
       {"frozen_bytes"},
       {.key = "fingerprint", .json_only = true}});

  std::vector<MemPoint> points;
  bench::JsonValue rows = bench::JsonValue::Array();
  for (size_t clients : client_counts) {
    MemPoint p = Measure(
        MemScaleSpec(mode, clients, duration_min, proxy::SpillMode::kAuto));
    points.push_back(p);
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, p.fingerprint);
    rows.Push(table.Add(
        {p.clients, p.wall_seconds, p.requests, p.requests_per_sec,
         p.construct_bytes_per_client, p.after_run_bytes_per_client,
         p.peak_rss_bytes, p.spill.freezes, p.spill.thaws,
         p.spill.frozen_clients, p.spill.frozen_bytes, std::string(fp)}));
  }

  GateResult mem_gate = CheckBudget(points.back(), budget);
  if (mem_gate.status != "off") {
    if (mem_gate.ok) {
      bench::Note("memory gate " + mem_gate.status);
    } else {
      std::fprintf(stderr, "FATAL: memory gate %s\n", mem_gate.status.c_str());
    }
  }

  GateResult spill_gate =
      CheckSpillNeutral(mode, client_counts.front(), duration_min);
  if (spill_gate.ok) {
    bench::Note("spill-neutrality gate " + spill_gate.status);
  } else {
    std::fprintf(stderr, "FATAL: spill-neutrality gate %s\n",
                 spill_gate.status.c_str());
  }

  h.Finish(std::move(rows),
           bench::JsonRow(
               {{"duration_minutes", duration_min},
                {"heap_probe_available", bench::HeapProbeAvailable()},
                {"max_bytes_per_client", budget},
                {"memory_gate", mem_gate.status},
                {"spill_gate", spill_gate.status}}));

  bench::Note(
      "expected shape: bytes/client falls as fixed stack costs amortize, "
      "then flattens at the true per-client footprint; req/sec stays flat "
      "(the timing wheel keeps scheduling O(1) as the fleet grows)");
  return mem_gate.ok && spill_gate.ok ? 0 : 1;
}
