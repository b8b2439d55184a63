// perfbench: the repository benchmark. Runs one workload and prints every
// metric by name with its unit, the correctness checks, and one JSON line
// with all of it (see README.md for the workloads and metric definitions).
//
//   perfbench --workload browse|write-storm|edge-socket --seed N
//             --seconds S --trace 0|1 [--schedule-only]
//
// --trace 0 measures the end-to-end metrics, untraced; --trace 1 adds a
// traced run and the per-layer probes. --schedule-only prints the digest of
// the workload's op schedule for the seed and exits. Exit status is 1 when
// a correctness check failed and 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "report.h"
#include "schedule.h"
#include "sim_workload.h"
#include "socket_workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "browse|write-storm|edge-socket --seed N --seconds S "
               "--trace 0|1 [--schedule-only]\n",
               why);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool schedule_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--schedule-only") {
      schedule_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (!ParseNumber(value, &number)) {
      return Usage(("not a number: " + arg + " " + value).c_str());
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      options.seconds = number;
    } else if (arg == "--trace") {
      options.trace = number != 0;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  const bool socket = options.workload == "edge-socket";
  perfbench::SimSpec sim_spec;
  if (options.workload == "browse") {
    sim_spec = perfbench::BrowseSpec();
  } else if (options.workload == "write-storm") {
    sim_spec = perfbench::WriteStormSpec();
  } else if (!socket) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  if (schedule_only) {
    uint64_t digest = 0;
    size_t ops = 0;
    if (socket) {
      digest = perfbench::SocketScheduleDigest(
          perfbench::EdgeSocketSpec(), options.seed, options.seconds, &ops);
    } else {
      speedkit::workload::Catalog catalog =
          perfbench::MakeCatalog(sim_spec);
      perfbench::SimSchedule s =
          perfbench::BuildSimSchedule(sim_spec, catalog, options.seed);
      digest = s.Digest();
      ops = s.ops.size();
    }
    std::printf("schedule %s seed=%llu ops=%zu digest=%016llx\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), ops,
                static_cast<unsigned long long>(digest));
    return 0;
  }

  perfbench::Report report;
  report.Info("workload", options.workload);
  report.Info("seed", static_cast<double>(options.seed));
  report.Info("seconds", options.seconds);
  report.Info("trace", options.trace ? "1" : "0");
  report.Info("available_cpus",
              static_cast<double>(speedkit::ThreadPool::AvailableCpus()));
  report.Info("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  if (socket) {
    perfbench::RunSocketWorkload(perfbench::EdgeSocketSpec(), options,
                                 &report);
  } else {
    perfbench::RunSimWorkload(sim_spec, options, &report);
  }
  report.PrintText();
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.AllChecksPassed() ? 0 : 1;
}
