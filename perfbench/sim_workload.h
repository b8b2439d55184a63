// The simulated workloads (browse, write-storm): one unsharded
// SpeedKitStack driven op by op from a pre-generated schedule.
//
// The measured unit is one whole schedule run on a freshly set-up stack:
// fixed work, so every model outcome (hit ratio, modelled latency, bytes,
// heap) and the outcome fingerprint are the same on any machine. A run
// repeats the unit until --seconds of unit time are spent and reports the
// median over units, which also re-checks that every repeat reproduces the
// first one's fingerprint.
#ifndef PERFBENCH_SIM_WORKLOAD_H_
#define PERFBENCH_SIM_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stack.h"
#include "proxy/client_pool.h"
#include "report.h"
#include "schedule.h"
#include "workload/catalog.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Layers the driver times in a traced unit, one span per call.
enum class Layer : uint8_t {
  kDispatch,   // EventQueue::RunUntil up to the op's sim time
  kUrlParse,   // http::Url::Parse of the fetched URL
  kFetch,      // ClientProxy::Fetch (tag = proxy::ServedFrom)
  kUpdate,     // ObjectStore::Update (write feed, matching, sketch reports)
  kSweep,      // ClientPool::SpillIdle
};

// One timed call.
struct Span {
  uint32_t duration_ns = 0;
  Layer layer = Layer::kDispatch;
  uint8_t tag = 0;
};

struct UnitResult {
  uint64_t fingerprint = 0;  // model outcomes of every op, in order
  double seconds = 0;
  uint64_t ops = 0;
  uint64_t fetches = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;  // fetches served as errors
  uint64_t events = 0;  // events EventQueue::RunUntil dispatched
  // Component state at the end of the unit.
  speedkit::proxy::ProxyStats proxy;
  speedkit::coherence::StalenessReport staleness;
  speedkit::origin::OriginStats origin;
  speedkit::invalidation::PipelineStats pipeline;
  speedkit::cache::HttpCacheStats edge;
  speedkit::proxy::ClientPoolSpillStats spill;
  speedkit::sim::TimingWheelStats wheel;
  uint64_t sketch_entries = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t heap_bytes = 0;  // in use, minus the pre-setup baseline
  std::vector<double> model_latency_us;  // FetchResult.latency per fetch
  std::vector<double> wall_us;  // per fetch, from op start to Fetch return
  std::vector<Span> spans;      // traced units only
};

// One fully set-up simulated deployment: stack, populated catalog,
// registered queries, fleet and op schedule.
class SimInstance {
 public:
  SimInstance(const SimSpec& spec, uint64_t seed);
  SimInstance(const SimInstance&) = delete;
  SimInstance& operator=(const SimInstance&) = delete;

  double setup_seconds() const { return setup_seconds_; }

  // Runs the whole schedule once. Call once per instance.
  UnitResult Run(bool traced);

  speedkit::core::SpeedKitStack& stack() { return *stack_; }
  const SimSchedule& schedule() const { return schedule_; }
  const speedkit::workload::Catalog& catalog() const { return catalog_; }
  speedkit::proxy::ClientProxy* client(size_t i) { return clients_[i]; }

 private:
  template <bool kTraced>
  UnitResult RunLoop();
  void Snapshot(UnitResult* out);

  SimSpec spec_;
  uint64_t seed_;
  speedkit::workload::Catalog catalog_;
  SimSchedule schedule_;
  std::vector<std::string> product_ids_;
  // Result buffers, reserved before the heap baseline is taken so the
  // heap metric never counts them.
  UnitResult result_;
  uint64_t heap_baseline_ = 0;
  std::unique_ptr<speedkit::core::SpeedKitStack> stack_;
  std::unique_ptr<speedkit::proxy::ClientPool> pool_;
  std::vector<speedkit::proxy::ClientProxy*> clients_;
  speedkit::SimTime start_;
  double setup_seconds_ = 0;
};

// Runs browse or write-storm per `options` and fills `report`.
void RunSimWorkload(const SimSpec& spec, const RunOptions& options,
                    Report* report);

// Heap in use (glibc mallinfo2; 0 where unavailable) and peak RSS.
uint64_t HeapBytesInUse();
uint64_t PeakRssBytes();

}  // namespace perfbench

#endif  // PERFBENCH_SIM_WORKLOAD_H_
