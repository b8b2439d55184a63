// Workload specs and their op schedules.
//
// A schedule is everything the benchmark hands the program during the
// timed window, generated before it as a pure function of the workload
// seed: the simulated workloads get a time-ordered list of fetches, store
// writes and spill sweeps; edge-socket gets, per fixed-rate phase and before
// that phase starts, a stream of (due time, product, client identity)
// requests. Nothing inside the window draws randomness on the benchmark's
// behalf.
#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "workload/catalog.h"
#include "workload/session.h"

namespace perfbench {

using speedkit::Duration;

// One FNV-1a step over the eight bytes of `v`: the schedule digests and the
// outcome fingerprints are chains of these from kFnvBasis.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
inline uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// -- simulated workloads (browse, write-storm) ------------------------------

struct SimSpec {
  std::string name;
  size_t clients = 0;
  double writes_per_sec = 0;
  double write_skew = 0.8;
  size_t products = 2000;
  int categories = 20;
  uint64_t catalog_seed = 1;  // the catalog is part of the spec, not the seed
  Duration delta = Duration::Seconds(30);
  Duration mean_session_gap = Duration::Seconds(45);
  speedkit::workload::SessionConfig session;
  // Schedule a ClientPool::SpillIdle sweep every `sweep_interval` (only
  // meaningful when the fleet is past the pool's spill threshold).
  bool sweeps = false;
  Duration sweep_interval = Duration::Seconds(30);
  // Ops in the schedule: the fixed work of one measured unit.
  size_t unit_ops = 0;
};

SimSpec BrowseSpec();
SimSpec WriteStormSpec();

enum class OpKind : uint8_t { kFetch, kWrite, kSweep };

struct Op {
  int64_t at_us = 0;     // sim time, relative to the window start
  uint32_t client = 0;   // fetch: fleet index
  uint32_t target = 0;   // fetch: index into SimSchedule::urls; write: rank
  OpKind kind = OpKind::kFetch;
};

struct SimSchedule {
  // Fetch targets: the home shell, then every category listing, then
  // every product page (see CategoryUrlIndex).
  std::vector<std::string> urls;
  std::vector<Op> ops;
  uint64_t fetches = 0;

  // Order-sensitive digest of every op, for the determinism tests.
  uint64_t Digest() const;
};

// URL index layout shared by the generator and the driver.
inline uint32_t CategoryUrlIndex(int category) {
  return 1 + static_cast<uint32_t>(category);
}
inline bool IsTrackedUrl(uint32_t index) { return index != 0; }

// Builds the catalog a workload runs on.
speedkit::workload::Catalog MakeCatalog(const SimSpec& spec);

// The first spec.unit_ops ops of the workload (fewer only if the
// sim-time cap is hit first).
SimSchedule BuildSimSchedule(const SimSpec& spec,
                             const speedkit::workload::Catalog& catalog,
                             uint64_t seed);

// -- edge-socket ------------------------------------------------------------

struct SocketPhase {
  double rate = 0;          // offered requests per second
  int pass = -1;            // ladder pass, -1 for warm-up and reference
  int64_t duration_ns = 0;
};

struct SocketRequest {
  int64_t due_ns = 0;       // relative to its phase start
  uint32_t product = 0;     // catalog rank
  uint32_t identity = 0;    // X-SpeedKit-Client
};

struct SocketSpec {
  size_t products = 2000;
  size_t hot_products = 500;
  double zipf_s = 0.95;
  uint32_t identities = 1024;
  // Phase 0 warms the node at the reference rate and is not measured;
  // phase 1 runs at the reference rate and gives the edge latencies and
  // model outcomes; `passes` passes over the ladder follow, one step per
  // phase. Durations are shares of the run's --seconds.
  double reference_rate = 0;
  double warmup_share = 0;
  double reference_share = 0;
  // Offered rates probing the latency limit, ascending. A pass stops at
  // its first step that misses the limit.
  std::vector<double> ladder;
  int passes = 0;
  double step_share = 0;
  // A phase's p99 is the median of the p99s of its slices of this share.
  double slice_share = 0;
  double p99_limit_us = 0;
};

inline constexpr size_t kWarmupPhase = 0;
inline constexpr size_t kReferencePhase = 1;
inline constexpr size_t kFirstLadderPhase = 2;

SocketSpec EdgeSocketSpec();

// The phases of a run of `seconds`, in order.
std::vector<SocketPhase> SocketPhases(const SocketSpec& spec, double seconds);

// Replaces *out with the requests of phase `index`, in due order: a pure
// function of the seed and the phase, so a run generates each phase just
// before it starts and holds one phase's requests at a time.
void SocketPhaseRequests(const SocketSpec& spec, const SocketPhase& phase,
                         size_t index, uint64_t seed,
                         std::vector<SocketRequest>* out);

// Chains one phase and its requests into a schedule digest.
uint64_t MixPhase(uint64_t h, const SocketPhase& phase,
                  const std::vector<SocketRequest>& requests);

// Order-sensitive digest of every phase's requests, from kFnvBasis;
// *requests gets their number.
uint64_t SocketScheduleDigest(const SocketSpec& spec, uint64_t seed,
                              double seconds, size_t* requests);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
