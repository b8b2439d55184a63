#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/export.h"
#include "obs/metric_names.h"

namespace speedkit::obs {
namespace {

TEST(MetricsRegistryTest, CounterFindOrCreateIsStable) {
  MetricsRegistry reg;
  uint64_t* c = reg.Counter("proxy.requests");
  EXPECT_EQ(*c, 0u);
  *c += 3;
  EXPECT_EQ(reg.Counter("proxy.requests"), c);
  EXPECT_EQ(*reg.Counter("proxy.requests"), 3u);
}

TEST(MetricsRegistryTest, LabelsAreSeparateSeries) {
  MetricsRegistry reg;
  *reg.Counter("proxy.serves", "tier=browser") = 5;
  *reg.Counter("proxy.serves", "tier=edge") = 7;
  EXPECT_EQ(*reg.Counter("proxy.serves", "tier=browser"), 5u);
  EXPECT_EQ(*reg.Counter("proxy.serves", "tier=edge"), 7u);
  // The empty-label family total is a third, independent series.
  EXPECT_EQ(*reg.Counter("proxy.serves"), 0u);
  EXPECT_EQ(reg.metrics().size(), 3u);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Find("network.rtt_us"), nullptr);
  reg.Histo("network.rtt_us", "link=client_edge");
  EXPECT_EQ(reg.Find("network.rtt_us"), nullptr);  // different label set
  const Metric* m = reg.Find("network.rtt_us", "link=client_edge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kHistogram);
  EXPECT_EQ(reg.metrics().size(), 1u);
}

TEST(MetricsRegistryTest, RegistrationOrderIsPreserved) {
  MetricsRegistry reg;
  reg.Counter("b.first");
  reg.Gauge("a.second");
  reg.Histo("c.third");
  ASSERT_EQ(reg.metrics().size(), 3u);
  EXPECT_EQ(reg.metrics()[0]->name, "b.first");
  EXPECT_EQ(reg.metrics()[1]->name, "a.second");
  EXPECT_EQ(reg.metrics()[2]->name, "c.third");
}

TEST(MetricsRegistryDeathTest, KindMismatchDiesLoudly) {
  MetricsRegistry reg;
  reg.Counter("proxy.requests");
  EXPECT_DEATH(reg.Gauge("proxy.requests"), "registered as counter");
}

TEST(MetricsRegistryTest, MergeFromSumsCountersMaxesGaugesMergesHistos) {
  MetricsRegistry a;
  *a.Counter("proxy.requests") = 10;
  *a.Gauge("sketch.entries") = 4;
  a.Histo("request.latency_us")->Add(100);

  MetricsRegistry b;
  *b.Counter("proxy.requests") = 7;
  *b.Gauge("sketch.entries") = 9;
  b.Histo("request.latency_us")->Add(300);
  *b.Counter("proxy.timeouts") = 2;  // absent in a: adopted

  a.MergeFrom(b);
  EXPECT_EQ(*a.Counter("proxy.requests"), 17u);
  EXPECT_EQ(*a.Gauge("sketch.entries"), 9);
  EXPECT_EQ(a.Histo("request.latency_us")->count(), 2u);
  EXPECT_EQ(a.Histo("request.latency_us")->max(), 300);
  EXPECT_EQ(*a.Counter("proxy.timeouts"), 2u);
}

TEST(MetricsRegistryTest, MergeFromGaugeKeepsOwnLargerValue) {
  MetricsRegistry a;
  *a.Gauge("sketch.entries") = 12;
  MetricsRegistry b;
  *b.Gauge("sketch.entries") = 3;
  a.MergeFrom(b);
  EXPECT_EQ(*a.Gauge("sketch.entries"), 12);
}

TEST(MetricsExportTest, MetricsToJsonCarriesEverySeries) {
  MetricsRegistry reg;
  *reg.Counter("proxy.requests") = 41;
  *reg.Gauge("sketch.entries") = 5;
  reg.Histo("request.latency_us", "tier=edge")->Add(2500);
  JsonValue json = MetricsToJson(reg);
  EXPECT_EQ(json.size(), 3u);
  std::string dump = json.Dump();
  EXPECT_NE(dump.find("\"proxy.requests\""), std::string::npos);
  EXPECT_NE(dump.find("41"), std::string::npos);
  EXPECT_NE(dump.find("tier=edge"), std::string::npos);
  EXPECT_NE(dump.find("\"p50\""), std::string::npos);
}

TEST(MetricsExportTest, WriteMetricsJsonAndCsv) {
  MetricsRegistry reg;
  *reg.Counter(kProxyRequests) = 1;
  reg.Histo(kRequestLatencyUs, "tier=origin")->Add(120000);
  const std::string json_path = testing::TempDir() + "metrics_test.json";
  const std::string csv_path = testing::TempDir() + "metrics_test.csv";
  ASSERT_TRUE(WriteMetricsJson(json_path, reg, {{"seed", "42"}}));
  ASSERT_TRUE(WriteMetricsCsv(csv_path, reg));

  std::stringstream json;
  json << std::ifstream(json_path).rdbuf();
  EXPECT_NE(json.str().find("\"seed\": \"42\""), std::string::npos);
  EXPECT_NE(json.str().find("proxy.requests"), std::string::npos);

  std::stringstream csv;
  csv << std::ifstream(csv_path).rdbuf();
  EXPECT_NE(csv.str().find("name,labels,kind"), std::string::npos);
  EXPECT_NE(csv.str().find("request.latency_us,tier=origin,histogram"),
            std::string::npos);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(MetricsExportTest, TraceCsvQuotesAndMeta) {
  RequestTrace t;
  t.id = 7;
  t.kind = std::string(kTraceKindRequest);
  t.url = "https://x.test/a,b";  // comma forces RFC-4180 quoting
  t.tier = std::string(kTierEdge);
  t.status = 200;
  t.latency_us = 1500;
  Span s;
  s.name = "net.client_edge";
  s.tier = std::string(kTierNetwork);
  s.duration_us = 1500;
  t.spans.push_back(s);

  const std::string path = testing::TempDir() + "trace_test.csv";
  ASSERT_TRUE(WriteTraceCsv(path, {t}, {{"served_total", "1"}}));
  std::stringstream csv;
  csv << std::ifstream(path).rdbuf();
  EXPECT_NE(csv.str().find("# served_total=1"), std::string::npos);
  EXPECT_NE(csv.str().find("\"https://x.test/a,b\""), std::string::npos);
  EXPECT_NE(csv.str().find("span,7,request,0,-1,net.client_edge,network"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace speedkit::obs
