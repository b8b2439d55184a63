#include "obs/trace.h"

#include <gtest/gtest.h>

#include "bench/workload_runner.h"
#include "cache/cdn.h"
#include "proxy/client_proxy.h"

namespace speedkit::obs {
namespace {

TEST(TraceBuilderTest, InactiveWithNullTracer) {
  TraceBuilder b;
  b.Begin(nullptr, kTraceKindRequest, "/p/1", SimTime());
  EXPECT_FALSE(b.active());
  b.AddSpan("net.client_edge", kTierNetwork, Duration::Millis(5));
  EXPECT_FALSE(b.active());
}

TEST(TraceBuilderTest, InactiveWithDisabledTracer) {
  Tracer tracer;  // default-constructed = null sink = disabled
  EXPECT_FALSE(tracer.enabled());
  TraceBuilder b;
  b.Begin(&tracer, kTraceKindRequest, "/p/1", SimTime());
  EXPECT_FALSE(b.active());
}

TEST(TraceBuilderTest, AddSpanLaysLegsEndToEnd) {
  InMemoryTraceSink sink;
  Tracer tracer(&sink);
  TraceBuilder b;
  b.Begin(&tracer, kTraceKindRequest, "/p/1", SimTime() + Duration::Seconds(3));
  EXPECT_TRUE(b.active());
  b.AddSpan("proxy.overhead", kTierProxy, Duration::Millis(1));
  b.AddSpan("net.client_edge", kTierNetwork, Duration::Millis(20));
  b.Finish(kTierEdge, 200, false, Duration::Millis(21));

  ASSERT_EQ(sink.traces().size(), 1u);
  const RequestTrace& t = sink.traces()[0];
  EXPECT_EQ(t.kind, kTraceKindRequest);
  EXPECT_EQ(t.url, "/p/1");
  EXPECT_EQ(t.start_us, Duration::Seconds(3).micros());
  EXPECT_EQ(t.tier, kTierEdge);
  EXPECT_EQ(t.latency_us, Duration::Millis(21).micros());
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].start_us, 0);
  EXPECT_EQ(t.spans[0].duration_us, Duration::Millis(1).micros());
  // The cursor advanced: the second leg starts where the first ended.
  EXPECT_EQ(t.spans[1].start_us, Duration::Millis(1).micros());
}

TEST(TraceBuilderTest, AddSpanAtDoesNotMoveCursor) {
  InMemoryTraceSink sink;
  Tracer tracer(&sink);
  TraceBuilder b;
  b.Begin(&tracer, kTraceKindPurge, "key", SimTime());
  // Parallel fan-out: both deliveries start at the same offset.
  b.AddSpanAt("purge.deliver", kTierPurge, Duration::Millis(2),
              Duration::Millis(10));
  b.AddSpanAt("purge.deliver", kTierPurge, Duration::Millis(2),
              Duration::Millis(30));
  b.AddSpan("after", kTierPurge, Duration::Millis(1));
  b.Finish(kTierPurge, 0, false, Duration::Millis(32));

  ASSERT_EQ(sink.traces().size(), 1u);
  const RequestTrace& t = sink.traces()[0];
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].start_us, t.spans[1].start_us);
  // AddSpanAt left the cursor at 0, so the serial span starts there.
  EXPECT_EQ(t.spans[2].name, "after");
  EXPECT_EQ(t.spans[2].start_us, 0);
}

// --- end-to-end determinism -----------------------------------------------

bench::RunSpec TracedSpec(bool tracing, bool metrics) {
  bench::RunSpec spec = bench::DefaultRunSpec();
  // Small run: the properties under test are structural, not statistical.
  spec.traffic.num_clients = 5;
  spec.traffic.duration = Duration::Minutes(2);
  spec.stack.obs.tracing = tracing;
  spec.stack.obs.metrics = metrics;
  return spec;
}

TEST(TraceDeterminismTest, SameSeedSameSpanTree) {
  bench::RunOutput a = bench::RunWorkload(TracedSpec(true, false));
  bench::RunOutput b = bench::RunWorkload(TracedSpec(true, false));
  ASSERT_NE(a.traces, nullptr);
  ASSERT_NE(b.traces, nullptr);
  ASSERT_EQ(a.traces->traces().size(), b.traces->traces().size());
  // RequestTrace/Span have defaulted operator== — every span must match.
  EXPECT_EQ(a.traces->traces(), b.traces->traces());
}

TEST(TraceDeterminismTest, TracingOnOffIdenticalResults) {
  bench::RunOutput off = bench::RunWorkload(TracedSpec(false, false));
  bench::RunOutput on = bench::RunWorkload(TracedSpec(true, true));
  EXPECT_EQ(off.traces, nullptr);
  ASSERT_NE(on.traces, nullptr);
  EXPECT_EQ(bench::FingerprintRun(off), bench::FingerprintRun(on));
}

TEST(TraceDeterminismTest, OneRequestTracePerServedRequest) {
  bench::RunOutput out = bench::RunWorkload(TracedSpec(true, false));
  ASSERT_NE(out.traces, nullptr);

  uint64_t request_traces = 0;
  uint64_t purge_traces = 0;
  for (const RequestTrace& t : out.traces->traces()) {
    if (t.kind == kTraceKindPurge) {
      EXPECT_EQ(t.tier, kTierPurge);
      ++purge_traces;
    } else {
      EXPECT_EQ(t.kind, kTraceKindRequest);
      ++request_traces;
    }
  }
  EXPECT_EQ(request_traces, out.traffic.proxies.ServedTotal());
  EXPECT_GT(purge_traces, 0u);  // the SpeedKit variant purges on writes
}

TEST(TraceDeterminismTest, MetricsSnapshotMatchesStatsStructs) {
  bench::RunOutput out = bench::RunWorkload(TracedSpec(false, true));
  ASSERT_NE(out.metrics, nullptr);
  const Metric* requests = out.metrics->Find("proxy.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->counter, out.traffic.proxies.requests);
  const Metric* edge_serves = out.metrics->Find("proxy.serves", "tier=edge");
  ASSERT_NE(edge_serves, nullptr);
  EXPECT_EQ(edge_serves->counter, out.traffic.proxies.edge_hits);
  const Metric* latency =
      out.metrics->Find("request.latency_us", "fault=ok");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.count(),
            out.traffic.proxies.latency_ok_us.count());
}

// --- merge paths (the multi-seed aggregation bugfix) -----------------------

TEST(StatsMergeTest, ProxyStatsMergesHistogramsAndDegradedCounters) {
  proxy::ProxyStats a;
  a.requests = 10;
  a.timeouts = 1;
  a.retries = 2;
  a.fallback_serves = 1;
  a.background_revalidations = 3;
  a.latency_edge_us.Add(1000);
  a.latency_ok_us.Add(1000);

  proxy::ProxyStats b;
  b.requests = 5;
  b.timeouts = 4;
  b.retries = 1;
  b.fallback_serves = 2;
  b.background_revalidations = 2;
  b.latency_edge_us.Add(3000);
  b.latency_degraded_us.Add(9000);
  b.latency_ok_us.Add(3000);

  a += b;
  EXPECT_EQ(a.requests, 15u);
  EXPECT_EQ(a.timeouts, 5u);
  EXPECT_EQ(a.retries, 3u);
  EXPECT_EQ(a.fallback_serves, 3u);
  EXPECT_EQ(a.background_revalidations, 5u);
  EXPECT_EQ(a.latency_edge_us.count(), 2u);
  EXPECT_EQ(a.latency_edge_us.max(), 3000);
  EXPECT_EQ(a.latency_degraded_us.count(), 1u);
  EXPECT_EQ(a.latency_ok_us.Sum(), 4000);
}

TEST(StatsMergeTest, EdgeFaultStatsMergesPurgeDelayHistogram) {
  cache::EdgeFaultStats a;
  a.down_rejects = 2;
  a.purge_delay_us.Add(500);

  cache::EdgeFaultStats b;
  b.purges_dropped = 3;
  b.purge_delay_us.Add(1500);
  b.purge_delay_us.Add(2500);

  a += b;
  EXPECT_EQ(a.down_rejects, 2u);
  EXPECT_EQ(a.purges_dropped, 3u);
  EXPECT_EQ(a.purge_delay_us.count(), 3u);
  EXPECT_EQ(a.purge_delay_us.max(), 2500);
}

}  // namespace
}  // namespace speedkit::obs
