// Parallel multi-seed experiment runner.
//
// The paper's evaluation numbers are distributions over repeated
// randomized trials, not single runs. RunSweep fans RunWorkload out over
// seeds × configs on a thread pool — each trial owns its whole
// single-threaded SpeedKitStack, so trials are embarrassingly parallel —
// and collects results into a [config][seed] grid in a fixed order, so the
// merged numbers are bit-identical regardless of thread count or
// completion order.
//
// Aggregation is two-level:
//   MergeRuns     pools one config's per-seed runs into a single RunOutput
//                 (workload_runner.h; histograms merged sample-by-sample,
//                 counters summed) — overall percentiles over all seeds'
//                 samples;
//   SeedStatsOf   the across-seed distribution of a scalar metric
//                 (mean/stddev/min/max/p50/p99 over the per-seed values) —
//                 run-to-run variance, the error bars on every figure.
#ifndef SPEEDKIT_BENCH_PARALLEL_RUNNER_H_
#define SPEEDKIT_BENCH_PARALLEL_RUNNER_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <functional>
#include <vector>

#include "bench/workload_runner.h"
#include "common/thread_pool.h"
#include "obs/json_writer.h"

namespace speedkit::bench {

// Derives the trial spec for seed index `i` of a config. Seed index 0 is
// the base spec itself (a one-seed sweep reproduces the old single-run
// numbers); higher indices decorrelate stack, catalog and traffic RNG
// streams. Depends only on (base, i) — never on execution order.
inline RunSpec SpecForSeed(const RunSpec& base, int i) {
  RunSpec spec = base;
  uint64_t n = static_cast<uint64_t>(i);
  spec.stack.seed = base.stack.seed + n * 1000003ull;
  spec.catalog_seed = base.catalog_seed + n * 7919ull;
  spec.traffic.seed_salt = base.traffic.seed_salt + n * 131ull;
  return spec;
}

struct SweepResult {
  // outputs[config][seed], both dimensions in submission order.
  std::vector<std::vector<RunOutput>> outputs;
  double wall_seconds = 0;  // fan-out wall-clock
  double cpu_seconds = 0;   // summed per-trial thread CPU time

  // Parallel efficiency: ~num threads on idle multicore hardware, ~1 when
  // serial or on a single core. Built on per-thread CPU time, not per-trial
  // wall time — time a trial spends descheduled while other workers hold the
  // core does not count, so oversubscription can't fake a speedup.
  double Speedup() const {
    return wall_seconds > 0 ? cpu_seconds / wall_seconds : 0.0;
  }
};

// CPU time consumed by the calling thread, for the serial-equivalent cost
// accounting above. Falls back to wall time where thread clocks are missing.
inline double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  }
#endif
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `num_seeds` trials of every config, `threads` at a time
// (threads <= 1 runs serially on the calling thread — same work, same
// numbers). Results land in a pre-sized grid indexed by (config, seed),
// so the fill order is deterministic no matter which trial finishes first.
inline SweepResult RunSweep(const std::vector<RunSpec>& configs,
                            int num_seeds, int threads) {
  using Clock = std::chrono::steady_clock;
  num_seeds = std::max(1, num_seeds);
  SweepResult result;
  result.outputs.resize(configs.size());
  for (auto& per_seed : result.outputs) per_seed.resize(num_seeds);
  std::vector<double> trial_seconds(configs.size() * num_seeds, 0.0);

  auto run_trial = [&](size_t flat) {
    size_t config_index = flat / static_cast<size_t>(num_seeds);
    int seed_index = static_cast<int>(flat % static_cast<size_t>(num_seeds));
    double cpu0 = ThreadCpuSeconds();
    result.outputs[config_index][seed_index] =
        RunWorkload(SpecForSeed(configs[config_index], seed_index));
    trial_seconds[flat] = ThreadCpuSeconds() - cpu0;
  };

  size_t total = configs.size() * static_cast<size_t>(num_seeds);
  auto start = Clock::now();
  if (threads <= 1) {
    for (size_t flat = 0; flat < total; ++flat) run_trial(flat);
  } else {
    ThreadPool pool(static_cast<size_t>(threads));
    ParallelFor(&pool, total, run_trial);
  }
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (double s : trial_seconds) result.cpu_seconds += s;
  return result;
}

// Across-seed distribution of one scalar metric.
struct SeedStats {
  double mean = 0;
  double stddev = 0;  // population stddev over the seeds
  double min = 0;
  double max = 0;
  double p50 = 0;  // nearest-rank percentiles over the per-seed values
  double p99 = 0;
};

inline SeedStats SeedStatsOfValues(std::vector<double> values) {
  SeedStats stats;
  if (values.empty()) return stats;
  double sum = 0;
  for (double v : values) sum += v;
  stats.mean = sum / static_cast<double>(values.size());
  double var = 0;
  for (double v : values) var += (v - stats.mean) * (v - stats.mean);
  stats.stddev = std::sqrt(var / static_cast<double>(values.size()));
  std::sort(values.begin(), values.end());
  stats.min = values.front();
  stats.max = values.back();
  auto at = [&values](double q) {
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
  };
  stats.p50 = at(0.50);
  stats.p99 = at(0.99);
  return stats;
}

inline SeedStats SeedStatsOf(
    const std::vector<RunOutput>& runs,
    const std::function<double(const RunOutput&)>& metric) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const RunOutput& run : runs) values.push_back(metric(run));
  return SeedStatsOfValues(std::move(values));
}

inline obs::JsonValue JsonSeedStats(const SeedStats& stats) {
  return obs::JsonRow({{"mean", stats.mean},
                       {"stddev", stats.stddev},
                       {"min", stats.min},
                       {"max", stats.max},
                       {"p50", stats.p50},
                       {"p99", stats.p99}});
}

}  // namespace speedkit::bench

#endif  // SPEEDKIT_BENCH_PARALLEL_RUNNER_H_
