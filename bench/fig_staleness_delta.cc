// E2 — Δ-atomicity: observed staleness vs. the sketch refresh interval Δ.
//
// Reproduces the paper's coherence claim ("custom cache coherence protocol
// to avoid data staleness and achieve Δ-atomicity"): with the sketch on,
// the maximum observed staleness must stay below Δ (+ purge propagation)
// for every Δ, while the stale-read *rate* stays near zero; with the
// sketch off the same stack degrades to TTL-bounded staleness.
//
// Monte-Carlo mode: the Δ-atomicity bound must hold for EVERY seed, not on
// average — so the table reports the max staleness over all --seeds trials
// (MergeRuns takes the across-seed max), fanned out over --threads workers.
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace speedkit {
namespace {

constexpr int kDeltas[] = {5, 10, 30, 60, 120};
constexpr int kBaselineTtls[] = {30, 120, 600};
constexpr double kWriteRates[] = {0.5, 2.0, 8.0};

bench::RunSpec DeltaSpec(int delta_s) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.ttl_mode = core::TtlMode::kFixed;
  spec.stack.fixed_ttl = Duration::Seconds(120);
  spec.stack.coherence.delta = Duration::Seconds(delta_s);
  spec.traffic.writes_per_sec = 3.0;
  return spec;
}

bench::RunSpec BaselineSpec(int ttl_s) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.variant = core::SystemVariant::kFixedTtlCdn;
  spec.stack.fixed_ttl = Duration::Seconds(ttl_s);
  spec.traffic.writes_per_sec = 3.0;
  return spec;
}

bench::RunSpec WriteRateSpec(double rate) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.ttl_mode = core::TtlMode::kFixed;
  spec.stack.fixed_ttl = Duration::Seconds(120);
  spec.stack.coherence.delta = Duration::Seconds(30);
  spec.traffic.writes_per_sec = rate;
  return spec;
}

void Run(bench::Harness& h) {
  // One flat sweep over all three sections so --threads workers stay busy
  // across section boundaries; sections index into the grid by offset.
  std::vector<bench::RunSpec> configs;
  for (int delta_s : kDeltas) configs.push_back(DeltaSpec(delta_s));
  const size_t baseline_off = configs.size();
  for (int ttl_s : kBaselineTtls) configs.push_back(BaselineSpec(ttl_s));
  const size_t rate_off = configs.size();
  for (double rate : kWriteRates) configs.push_back(WriteRateSpec(rate));

  const bench::SweepResult& sweep =
      h.Sweep(&configs, /*default_seeds=*/4);
  bench::JsonValue rows = bench::JsonValue::Array();

  bench::Table deltas(
      "staleness vs delta (fixed 120s TTLs, 3 writes/s, 25 clients, 20min)",
      "delta_sweep",
      {{"delta_s"},
       {"reads"},
       {"stale_rate", 4, true},
       {"max_stale_s"},
       {"p99_stale_s"},
       {"sketch_bypasses"},
       {.key = "max_stale_s_per_seed", .json_only = true}});
  for (size_t i = 0; i < std::size(kDeltas); ++i) {
    const std::vector<bench::RunOutput>& runs = sweep.outputs[i];
    bench::RunOutput out = bench::MergeRuns(runs);
    bench::SeedStats max_stale = bench::SeedStatsOf(runs, [](const auto& o) {
      return o.staleness.max_staleness.seconds();
    });
    rows.Push(deltas.Add({kDeltas[i], out.staleness.reads,
                          out.staleness.StaleFraction(),
                          out.staleness.max_staleness.seconds(),
                          out.staleness_us.P99() / 1e6,
                          out.traffic.proxies.sketch_bypasses,
                          bench::JsonSeedStats(max_stale)}));
  }
  bench::Note(
      "max_stale_s is the worst case over all seeds and must stay <= bound "
      "(delta + purge propagation)");

  bench::Table baselines(
      "baseline: same stack, sketch disabled (fixed TTL only)",
      "no_sketch_baseline",
      {{"ttl_s"}, {"reads"}, {"stale_rate", 4, true}, {"max_stale_s"}});
  for (size_t i = 0; i < std::size(kBaselineTtls); ++i) {
    bench::RunOutput out = bench::MergeRuns(sweep.outputs[baseline_off + i]);
    rows.Push(baselines.Add({kBaselineTtls[i], out.staleness.reads,
                             out.staleness.StaleFraction(),
                             out.staleness.max_staleness.seconds()}));
  }
  bench::Note("staleness grows with TTL when nothing invalidates caches");

  bench::Table rates("delta=30s: robustness across write rates",
                     "write_rate_sensitivity",
                     {{"writes_per_sec", 1},
                      {"reads"},
                      {"stale_rate", 4, true},
                      {"max_stale_s"},
                      {"sketch_entries"}});
  for (size_t i = 0; i < std::size(kWriteRates); ++i) {
    bench::RunOutput out = bench::MergeRuns(sweep.outputs[rate_off + i]);
    rows.Push(rates.Add({kWriteRates[i], out.staleness.reads,
                         out.staleness.StaleFraction(),
                         out.staleness.max_staleness.seconds(),
                         out.sketch_entries}));
  }

  h.Finish(std::move(rows));
  h.Trace(configs[0]);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::bench::Harness h(argc, argv, "staleness_delta");
  h.RejectUnreadFlags(speedkit::bench::SharedFlags::kSweep);
  speedkit::bench::PrintHeader(
      "E2", "Delta-atomicity: staleness bound vs sketch refresh interval",
      "the paper's central coherence claim (bounded staleness under "
      "expiration-based caching)");
  speedkit::Run(h);
  return 0;
}
