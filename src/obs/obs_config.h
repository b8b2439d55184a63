// Observability switches, carried by core::StackConfig::obs.
//
// Both default OFF: a stack without observability allocates no registry and
// no sink, and components see a disabled Tracer (null sink — one branch per
// would-be span). Turning either on must never change simulation results;
// tests/obs/trace_test.cc runs the same seed both ways and compares.
#ifndef SPEEDKIT_OBS_OBS_CONFIG_H_
#define SPEEDKIT_OBS_OBS_CONFIG_H_

namespace speedkit::obs {

struct ObsConfig {
  // Snapshot component stats into a MetricsRegistry at collection points
  // (SpeedKitStack::CollectMetrics) and record live network RTT histograms.
  bool metrics = false;
  // Record each request's spans into an in-memory sink.
  bool tracing = false;
};

}  // namespace speedkit::obs

#endif  // SPEEDKIT_OBS_OBS_CONFIG_H_
