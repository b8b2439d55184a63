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
  EXPECT_EQ(b.AddSpan("net.client_edge", kTierNetwork, Duration::Millis(5)),
            -1);
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
  int first = b.AddSpan("proxy.overhead", kTierProxy, Duration::Millis(1));
  int second =
      b.AddSpan("net.client_edge", kTierNetwork, Duration::Millis(20), first);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
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
  // The cursor advanced: the second leg starts where the first ended,
  // and carries the first as its parent.
  EXPECT_EQ(t.spans[1].start_us, Duration::Millis(1).micros());
  EXPECT_EQ(t.spans[1].parent, 0);
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
  int serial = b.AddSpan("after", kTierPurge, Duration::Millis(1));
  b.Finish(kTierPurge, 0, false, Duration::Millis(32));

  ASSERT_EQ(sink.traces().size(), 1u);
  const RequestTrace& t = sink.traces()[0];
  ASSERT_EQ(t.spans.size(), 3u);
  EXPECT_EQ(t.spans[0].start_us, t.spans[1].start_us);
  // AddSpanAt left the cursor at 0, so the serial span starts there.
  EXPECT_EQ(serial, 2);
  EXPECT_EQ(t.spans[2].start_us, 0);
}

TEST(InMemoryTraceSinkTest, CapCountsDropsInsteadOfLosingThemSilently) {
  InMemoryTraceSink sink(/*max_traces=*/2);
  Tracer tracer(&sink);
  for (int i = 0; i < 5; ++i) {
    TraceBuilder b;
    b.Begin(&tracer, kTraceKindRequest, "/p", SimTime());
    b.Finish(kTierEdge, 200, false, Duration::Millis(1));
  }
  EXPECT_EQ(sink.traces().size(), 2u);
  EXPECT_EQ(sink.emitted(), 5u);
  EXPECT_EQ(sink.dropped(), 3u);
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
  // RequestTrace/Span have defaulted operator== — the whole tree must match.
  EXPECT_EQ(a.traces->traces(), b.traces->traces());
}

TEST(TraceDeterminismTest, TracingOnOffIdenticalResults) {
  bench::RunOutput off = bench::RunWorkload(TracedSpec(false, false));
  bench::RunOutput on = bench::RunWorkload(TracedSpec(true, true));
  EXPECT_EQ(off.traces, nullptr);
  ASSERT_NE(on.traces, nullptr);

  const proxy::ProxyStats& po = off.traffic.proxies;
  const proxy::ProxyStats& pt = on.traffic.proxies;
  EXPECT_EQ(po.requests, pt.requests);
  EXPECT_EQ(po.browser_hits, pt.browser_hits);
  EXPECT_EQ(po.edge_hits, pt.edge_hits);
  EXPECT_EQ(po.origin_fetches, pt.origin_fetches);
  EXPECT_EQ(po.swr_serves, pt.swr_serves);
  EXPECT_EQ(po.offline_serves, pt.offline_serves);
  EXPECT_EQ(po.errors, pt.errors);
  EXPECT_EQ(po.bytes_over_network, pt.bytes_over_network);
  EXPECT_EQ(po.latency_ok_us.count(), pt.latency_ok_us.count());
  EXPECT_EQ(po.latency_ok_us.Sum(), pt.latency_ok_us.Sum());
  EXPECT_EQ(off.staleness.reads, on.staleness.reads);
  EXPECT_EQ(off.staleness.stale_reads, on.staleness.stale_reads);
  EXPECT_EQ(off.origin_requests, on.origin_requests);
  EXPECT_EQ(off.pipeline.purges_effective, on.pipeline.purges_effective);
}

TEST(TraceDeterminismTest, OneRequestTracePerServedRequest) {
  bench::RunOutput out = bench::RunWorkload(TracedSpec(true, false));
  ASSERT_NE(out.traces, nullptr);
  EXPECT_EQ(out.traces->dropped(), 0u);

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
