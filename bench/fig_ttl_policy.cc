// E3 — TTL policy: latency, hit ratio and coherence cost vs. how cache
// lifetimes are chosen.
//
// Reproduces the TTL-estimator evaluation shape (companion Monte-Carlo
// study): longer/estimated TTLs buy hits; without coherence they also buy
// staleness, and with the sketch the cost shows up as sketch entries and
// revalidations instead of stale reads.
//
// Monte-Carlo mode: every (workload, policy) cell runs --seeds independent
// trials fanned out over --threads workers; the merged table pools all
// seeds, and --json dumps per-cell across-seed distributions.
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace speedkit {
namespace {

struct PolicyPoint {
  std::string name;
  core::TtlMode mode = core::TtlMode::kFixed;
  Duration fixed_ttl = Duration::Seconds(60);
  bool no_cache = false;
};

struct WorkloadPoint {
  std::string name;
  double read_skew;
  double writes_per_sec;
};

const std::vector<PolicyPoint>& Policies() {
  static const std::vector<PolicyPoint> kPolicies = {
      {"no-cache", core::TtlMode::kFixed, Duration::Zero(), true},
      {"fixed-30s", core::TtlMode::kFixed, Duration::Seconds(30), false},
      {"fixed-300s", core::TtlMode::kFixed, Duration::Seconds(300), false},
      {"fixed-3600s", core::TtlMode::kFixed, Duration::Seconds(3600), false},
      {"estimator", core::TtlMode::kEstimator, Duration::Zero(), false},
  };
  return kPolicies;
}

bench::RunSpec SpecFor(const WorkloadPoint& workload,
                       const PolicyPoint& policy) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  spec.traffic.session.product_skew = workload.read_skew;
  spec.traffic.writes_per_sec = workload.writes_per_sec;
  if (policy.no_cache) {
    spec.stack.variant = core::SystemVariant::kNoCaching;
  } else {
    spec.stack.ttl_mode = policy.mode;
    spec.stack.fixed_ttl = policy.fixed_ttl;
    spec.stack.max_estimated_ttl = Duration::Seconds(3600);
  }
  return spec;
}

void Run(bench::Harness& h) {
  const std::vector<WorkloadPoint> workloads = {
      {"moderate skew (0.8), 2 writes/s", 0.8, 2.0},
      {"high skew (0.99), 2 writes/s", 0.99, 2.0},
      {"moderate skew (0.8), write-heavy 8 writes/s", 0.8, 8.0},
  };

  // One flat sweep over every (workload, policy) cell keeps all --threads
  // workers busy across section boundaries.
  std::vector<bench::RunSpec> configs;
  for (const WorkloadPoint& workload : workloads) {
    for (const PolicyPoint& policy : Policies()) {
      configs.push_back(SpecFor(workload, policy));
    }
  }
  const bench::SweepResult& sweep =
      h.Sweep(&configs, /*default_seeds=*/4);
  bench::JsonValue rows = bench::JsonValue::Array();

  size_t config_index = 0;
  for (const WorkloadPoint& workload : workloads) {
    bench::Table table(workload.name, "",
                       {{.key = "workload", .json_only = true},
                        {.key = "read_skew", .json_only = true},
                        {.key = "writes_per_sec", .json_only = true},
                        {.key = "policy", .width = 14},
                        {"p50_ms", 1},
                        {"p99_ms", 1},
                        {"origin_requests"},
                        {"stale_rate", 4, true},
                        {"revalidations_304"},
                        {"sketch_entries"},
                        {"hit_rate", 1, true},
                        {.key = "p99_ms_per_seed", .json_only = true}});
    for (const PolicyPoint& policy : Policies()) {
      const std::vector<bench::RunOutput>& runs = sweep.outputs[config_index];
      bench::RunOutput out = bench::MergeRuns(runs);
      bench::SeedStats hit = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.BrowserHitRatio() + o.traffic.EdgeHitRatio();
      });
      bench::SeedStats p99 = bench::SeedStatsOf(runs, [](const auto& o) {
        return o.traffic.api_latency_us.P99() / 1e3;
      });
      rows.Push(table.Add(
          {workload.name, workload.read_skew, workload.writes_per_sec,
           policy.name, out.traffic.api_latency_us.P50() / 1e3,
           out.traffic.api_latency_us.P99() / 1e3, out.origin_requests,
           out.staleness.StaleFraction(),
           out.traffic.proxies.revalidations_304, out.sketch_entries,
           bench::JsonSeedStats(hit), bench::JsonSeedStats(p99)}));
      config_index++;
    }
  }

  h.Finish(std::move(rows));
  h.Trace(configs[0]);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  speedkit::bench::Harness h(argc, argv, "ttl_policy");
  h.RejectUnreadFlags(speedkit::bench::SharedFlags::kSweep);
  speedkit::bench::PrintHeader(
      "E3", "TTL policy: latency & hit ratio vs cache-lifetime strategy",
      "the TTL estimator's role in the polyglot architecture (hits vs "
      "coherence load)");
  speedkit::Run(h);
  speedkit::bench::Note(
      "expected shape: estimator ~matches the best fixed TTL on hits with "
      "fewer sketch entries/revalidations; no-cache pays full origin RTTs");
  return 0;
}
