// E14 — Fault injection & degraded mode: what breaks when the
// infrastructure does.
//
// Three stress axes, all driven by the deterministic fault schedule
// (sim/fault_schedule.h):
//
//   1. Purge-delivery loss. Dropped purges leave stale copies on edges —
//      but the sketch horizon comes from the ExpiryBook (every handed-out
//      TTL), not from purge acknowledgements, so Speed Kit's Δ-bound must
//      hold at ANY loss rate; degradation shows up as a rising stale-read
//      rate, never as a bound violation. The fixed-TTL baseline violates
//      the same bound with or without faults. CI gates on zero violations
//      at 0% loss.
//   2. Origin outage mid-run. Speed Kit keeps serving from browser/edge
//      copies (offline mode, stale-if-error); the fixed-TTL CDN only
//      survives as long as its edge TTLs do. An edge outage reroutes
//      pinned clients pass-through to the origin (fallback serves).
//   3. Flaky client-edge link. Timeouts burn the request budget, bounded
//      retries with exponential backoff absorb transient loss, and
//      persistent failure falls back to the origin path — availability
//      holds while p99 latency degrades measurably.
//
// Monte-Carlo mode: --seeds trials per config on --threads workers; the
// merged JSON is bit-identical for any thread count.
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace speedkit {
namespace {

constexpr double kPurgeLoss[] = {0.0, 0.1, 0.3, 0.6};
constexpr double kLinkLoss[] = {0.0, 0.05, 0.2};
// Δ-bound slack for purge propagation (the pipeline's lognormal delivery
// delay tail), matching E2's "delta + purge propagation" wording.
constexpr double kBoundMarginS = 2.0;

// Traffic starts 5s into simulated time (RunWorkload settles population
// writes first); outage windows are placed relative to that.
sim::FaultWindow Window(Duration from, Duration to) {
  sim::FaultWindow w;
  w.start = SimTime::Origin() + Duration::Seconds(5) + from;
  w.end = SimTime::Origin() + Duration::Seconds(5) + to;
  return w;
}

bench::RunSpec FaultSpec(core::SystemVariant variant) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.stack.variant = variant;
  spec.stack.ttl_mode = core::TtlMode::kFixed;
  spec.stack.fixed_ttl = Duration::Seconds(120);
  spec.stack.coherence.delta = Duration::Seconds(30);
  spec.traffic.writes_per_sec = 3.0;
  spec.delta_bound_margin = Duration::Seconds(kBoundMarginS);
  return spec;
}

bench::RunSpec PurgeLossSpec(core::SystemVariant variant, double loss) {
  bench::RunSpec spec = FaultSpec(variant);
  spec.stack.faults.purge_loss_probability = loss;
  return spec;
}

bench::RunSpec OutageSpec(core::SystemVariant variant, bool edge_outage) {
  bench::RunSpec spec = FaultSpec(variant);
  sim::FaultWindow w = Window(Duration::Minutes(8), Duration::Minutes(12));
  if (edge_outage) {
    spec.stack.faults.edges = {{w}};  // edge 0 down for 4 of 20 minutes
  } else {
    spec.stack.faults.origin = {w};
  }
  return spec;
}

bench::RunSpec FlakyLinkSpec(double loss) {
  bench::RunSpec spec = FaultSpec(core::SystemVariant::kSpeedKit);
  spec.stack.faults.client_edge.loss_probability = loss;
  return spec;
}

double Availability(const bench::RunOutput& out) {
  const proxy::ProxyStats& p = out.traffic.proxies;
  if (p.requests == 0) return 0.0;
  return 1.0 - static_cast<double>(p.errors) / static_cast<double>(p.requests);
}

void Run(bench::Harness& h) {
  // One flat sweep so workers stay busy across section boundaries.
  std::vector<bench::RunSpec> configs;
  for (double loss : kPurgeLoss) {
    configs.push_back(PurgeLossSpec(core::SystemVariant::kSpeedKit, loss));
  }
  const size_t baseline_off = configs.size();
  configs.push_back(PurgeLossSpec(core::SystemVariant::kFixedTtlCdn, 0.0));

  const size_t outage_off = configs.size();
  configs.push_back(OutageSpec(core::SystemVariant::kSpeedKit, false));
  configs.push_back(OutageSpec(core::SystemVariant::kFixedTtlCdn, false));
  configs.push_back(OutageSpec(core::SystemVariant::kSpeedKit, true));

  const size_t flaky_off = configs.size();
  for (double loss : kLinkLoss) configs.push_back(FlakyLinkSpec(loss));

  const bench::SweepResult& sweep =
      h.Sweep(&configs, /*default_seeds=*/3);
  bench::JsonValue rows = bench::JsonValue::Array();

  bench::Table purges(
      "purge-delivery loss: Delta-bound holds, stale-read rate degrades",
      "purge_loss",
      {{.key = "variant", .width = 13},
       {"purge_loss"},
       {"reads"},
       {"stale_rate", 4, true},
       {"max_stale_s"},
       {"delta_violations"},
       {.key = "violation_rate", .json_only = true},
       {.key = "excused_stale_reads", .json_only = true},
       {"purges_scheduled"},
       {"purges_dropped"},
       {.key = "violations_per_seed", .json_only = true}});
  auto purge_row = [&](const std::string& variant, double loss,
                       const std::vector<bench::RunOutput>& runs) {
    bench::RunOutput out = bench::MergeRuns(runs);
    bench::SeedStats violations = bench::SeedStatsOf(runs, [](const auto& o) {
      return static_cast<double>(o.staleness.delta_violations);
    });
    rows.Push(purges.Add(
        {variant, loss, out.staleness.reads, out.staleness.StaleFraction(),
         out.staleness.max_staleness.seconds(),
         out.staleness.delta_violations, out.staleness.ViolationFraction(),
         out.staleness.excused_stale_reads, out.pipeline.purges_scheduled,
         out.pipeline.purges_dropped, bench::JsonSeedStats(violations)}));
  };
  for (size_t i = 0; i < std::size(kPurgeLoss); ++i) {
    purge_row("speed_kit", kPurgeLoss[i], sweep.outputs[i]);
  }
  purge_row("fixed_ttl_cdn", 0.0, sweep.outputs[baseline_off]);
  bench::Note(
      "sketch horizons come from handed-out TTLs, not purge acks, so "
      "speed_kit violations stay 0 at every loss rate; the fixed-TTL "
      "baseline breaks the same bound with zero faults injected");

  bench::Table outages("4-minute outage inside a 20-minute run", "outage",
                       {{.key = "outage", .width = 14},
                        {.key = "variant", .width = 13},
                        {"requests"},
                        {"availability", 2, true},
                        {"errors"},
                        {"offline_serves"},
                        {"fallback_serves"},
                        {"timeouts"},
                        {.key = "edge_down_rejects", .json_only = true},
                        {.key = "excused_stale_reads", .json_only = true},
                        {.key = "availability_per_seed", .json_only = true}});
  const char* outage_names[] = {"origin", "origin", "edge0"};
  const char* outage_variants[] = {"speed_kit", "fixed_ttl_cdn", "speed_kit"};
  for (size_t i = 0; i < 3; ++i) {
    const std::vector<bench::RunOutput>& runs = sweep.outputs[outage_off + i];
    bench::RunOutput out = bench::MergeRuns(runs);
    bench::SeedStats avail = bench::SeedStatsOf(runs, Availability);
    const proxy::ProxyStats& p = out.traffic.proxies;
    rows.Push(outages.Add(
        {outage_names[i], outage_variants[i], p.requests, Availability(out),
         p.errors, p.offline_serves, p.fallback_serves, p.timeouts,
         out.edge_faults.down_rejects, out.staleness.excused_stale_reads,
         bench::JsonSeedStats(avail)}));
  }
  bench::Note(
      "speed_kit rides out the origin outage on device/edge copies "
      "(offline serves are excused from the Delta bound: availability "
      "over freshness); an edge outage is absorbed by pass-through "
      "rerouting");

  bench::Table flaky("flaky client-edge link: retries, fallbacks, latency",
                     "flaky_link",
                     {{"link_loss"},
                      {"requests"},
                      {"timeouts"},
                      {"retries"},
                      {"fallback_serves"},
                      {"availability", 2, true},
                      {"p99_api_ms", 1},
                      {.key = "delta_violations", .json_only = true}});
  for (size_t i = 0; i < std::size(kLinkLoss); ++i) {
    bench::RunOutput out = bench::MergeRuns(sweep.outputs[flaky_off + i]);
    const proxy::ProxyStats& p = out.traffic.proxies;
    rows.Push(flaky.Add({kLinkLoss[i], p.requests, p.timeouts, p.retries,
                         p.fallback_serves, Availability(out),
                         out.traffic.api_latency_us.P99() / 1e3,
                         out.staleness.delta_violations}));
  }
  bench::Note(
      "loss degrades tail latency (timeout + backoff burn) before it "
      "degrades availability (reroute to origin still serves)");

  h.Finish(std::move(rows),
           bench::JsonRow({{"bound_margin_s", kBoundMarginS}}));
  // Flaky-link config: its traces carry the richest degraded-path spans
  // (timeout waits, retry backoffs, reroutes) next to the happy paths.
  h.Trace(FlakyLinkSpec(0.2));
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::bench::Harness h(argc, argv, "faults");
  h.RejectUnreadFlags(speedkit::bench::SharedFlags::kSweep);
  speedkit::bench::PrintHeader(
      "E14", "Fault injection: purge loss, outages, flaky links",
      "degraded-mode behavior — the Delta bound survives purge loss, "
      "availability survives outages, retries absorb transient link loss");
  speedkit::Run(h);
  return 0;
}
