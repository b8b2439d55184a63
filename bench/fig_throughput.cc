// E15 — Sharded-engine scaling: simulated requests/sec vs. threads.
//
// The sharded fleet's contract is "parallelism without consequences": the
// merged numbers are a pure function of (seed, shards) and never of the
// thread count. This harness measures the payoff side (wall-clock
// requests/sec as threads grow at a fixed shard count) and GATES both
// sides:
//   * determinism — every thread count must reproduce the single-threaded
//     run's fingerprint bit-for-bit, or the process exits 1;
//   * scaling — with a floor configured (--min-speedup or the
//     SPEEDKIT_E15_MIN_SPEEDUP env var; CI sets 2.0), the measured
//     speedup at --speedup-threads (default 4) must reach it, or the
//     process exits 1. The gate auto-skips when the process is allowed
//     fewer CPUs than the gated thread count (ThreadPool::AvailableCpus
//     respects the affinity mask), so a single-core builder still runs
//     the determinism gate without a vacuous scaling failure.
//
// Defaults are sized so per-point runtime is dominated by simulated
// traffic, not per-shard setup (catalog population, fleet construction):
// --shards 8 (cdn_edges raised to a multiple automatically), 256 clients,
// 90 simulated minutes. Override with --num-clients / --duration (minutes)
// — the TSan CI job shrinks the workload this way. The full spec is
// recorded in the JSON output so a stored BENCH_throughput.json is
// self-describing across PRs.
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/thread_pool.h"

namespace speedkit {
namespace {

struct ThroughputPoint {
  int threads = 1;
  double wall_seconds = 0;
  double requests_per_sec = 0;
  uint64_t fingerprint = 0;
  uint64_t requests = 0;
};

bench::RunSpec ThroughputSpec(coherence::CoherenceMode mode, int shards,
                              int num_clients, double duration_minutes) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.shards = shards;
  // Give every shard a non-trivial slice: the default 4-edge / 25-client
  // stack would leave 8 shards mostly idle.
  if (spec.stack.cdn_edges % shards != 0 || spec.stack.cdn_edges < shards) {
    spec.stack.cdn_edges = 2 * shards;
  }
  spec.traffic.num_clients = static_cast<size_t>(num_clients);
  spec.traffic.duration = Duration::Minutes(duration_minutes);
  spec.stack.coherence.mode = mode;
  return spec;
}

ThroughputPoint Measure(const bench::RunSpec& base, int threads) {
  bench::RunSpec spec = base;
  spec.run_threads = threads;
  auto t0 = std::chrono::steady_clock::now();
  bench::RunOutput out = bench::RunWorkload(spec);
  ThroughputPoint point;
  point.threads = threads;
  point.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  point.requests = out.traffic.proxies.requests;
  point.requests_per_sec =
      point.wall_seconds > 0
          ? static_cast<double>(point.requests) / point.wall_seconds
          : 0.0;
  point.fingerprint = bench::FingerprintRun(out);
  return point;
}

struct GateResult {
  bool ok = true;
  std::string status;  // "passed" / "failed" / "skipped: ..." / "off"
};

// The scaling gate: speedup at `gate_threads` must reach `floor`.
GateResult CheckScaling(const std::vector<ThroughputPoint>& points,
                        double floor, int gate_threads) {
  GateResult gate;
  if (floor <= 0) {
    gate.status = "off";
    return gate;
  }
  size_t cpus = ThreadPool::AvailableCpus();
  if (cpus < static_cast<size_t>(gate_threads)) {
    gate.status = "skipped: only " + std::to_string(cpus) +
                  " CPU(s) available to this process";
    return gate;
  }
  const ThroughputPoint* gated = nullptr;
  for (const ThroughputPoint& p : points) {
    if (p.threads == gate_threads) gated = &p;
  }
  if (gated == nullptr) {
    gate.status = "skipped: no " + std::to_string(gate_threads) +
                  "-thread point measured (raise --threads)";
    return gate;
  }
  double speedup = gated->requests_per_sec / points.front().requests_per_sec;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.2fx at %d threads vs floor %.2fx",
                speedup, gate_threads, floor);
  if (speedup >= floor) {
    gate.status = std::string("passed: ") + buf;
  } else {
    gate.ok = false;
    gate.status = std::string("failed: ") + buf;
  }
  return gate;
}

// Returns false when a gate failed (fingerprint divergence or a scaling
// floor miss).
bool Run(const bench::Harness& h, const bench::RunSpec& base,
         const std::vector<int>& thread_counts, double min_speedup,
         int gate_threads) {
  std::vector<ThroughputPoint> points;
  for (int threads : thread_counts) points.push_back(Measure(base, threads));

  bench::Table table(
      "requests/sec vs threads (shards=" + std::to_string(base.stack.shards) +
          ", " + std::to_string(base.stack.cdn_edges) + " edges, " +
          std::to_string(base.traffic.num_clients) + " clients, " +
          std::to_string(
              static_cast<int>(base.traffic.duration.seconds() / 60)) +
          " sim-minutes)",
      "",
      {{"threads"},
       {"wall_seconds"},
       {.key = "requests", .json_only = true},
       {"requests_per_sec", 0},
       {"speedup_vs_1_thread"},
       {.key = "fingerprint", .width = 16}});
  bool invariant = true;
  const ThroughputPoint& first = points.front();
  bench::JsonValue rows = bench::JsonValue::Array();
  for (const ThroughputPoint& p : points) {
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64, p.fingerprint);
    rows.Push(table.Add({p.threads, p.wall_seconds, p.requests,
                         p.requests_per_sec,
                         p.requests_per_sec / first.requests_per_sec,
                         std::string(fp)}));
    if (p.fingerprint != first.fingerprint) invariant = false;
  }

  if (invariant) {
    bench::Note("determinism gate PASSED: all thread counts reproduced "
                "fingerprint of the 1-thread run bit-for-bit");
  } else {
    std::fprintf(stderr,
                 "FATAL: sharded run fingerprints diverged across thread "
                 "counts — the engine's determinism invariant is broken\n");
  }

  GateResult scaling = CheckScaling(points, min_speedup, gate_threads);
  if (scaling.status != "off") {
    if (scaling.ok) {
      bench::Note("scaling gate " + scaling.status);
    } else {
      std::fprintf(stderr, "FATAL: scaling gate %s\n", scaling.status.c_str());
    }
  }

  // The workload spec leads the rows, so stored trajectories are
  // comparable across PRs.
  h.Finish(std::move(rows),
           bench::JsonRow(
               {{"shards", base.stack.shards},
                {"cdn_edges", base.stack.cdn_edges},
                {"num_clients", base.traffic.num_clients},
                {"duration_minutes", base.traffic.duration.seconds() / 60.0},
                {"writes_per_sec", base.traffic.writes_per_sec},
                {"available_cpus", ThreadPool::AvailableCpus()},
                {"invariant_ok", invariant},
                {"min_speedup_required", min_speedup},
                {"speedup_gate", scaling.status}}));
  return invariant && scaling.ok;
}

double EnvSpeedupFloor() {
  const char* env = std::getenv("SPEEDKIT_E15_MIN_SPEEDUP");
  return env == nullptr ? 0.0 : std::strtod(env, nullptr);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "throughput");
  int num_clients = static_cast<int>(h.flags().GetInt("num-clients", 256));
  double duration_min = h.flags().GetDouble("duration", 90.0);
  // Scaling floor: flag wins, then the env var (how CI configures the
  // runner-class floor), 0 = determinism gate only.
  double min_speedup = h.flags().GetDouble("min-speedup", EnvSpeedupFloor());
  int gate_threads =
      static_cast<int>(h.flags().GetInt("speedup-threads", 4));

  std::vector<int> thread_counts;
  for (int t = 1; t <= h.threads(8); t *= 2) thread_counts.push_back(t);

  bench::PrintHeader(
      "E15", "Sharded-engine scaling and determinism gate",
      "simulated requests/sec vs worker threads at a fixed shard count; "
      "every point must fingerprint identically, and speedup must clear "
      "the configured floor");
  bench::RunSpec base =
      ThroughputSpec(h.coherence(), h.shards(8), num_clients, duration_min);
  bool ok = Run(h, base, thread_counts, min_speedup, gate_threads);
  bench::Note(
      "expected shape: near-linear scaling until threads exceed shards or "
      "available CPUs; the numbers themselves never move");
  return ok ? 0 : 1;
}
