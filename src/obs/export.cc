#include "obs/export.h"

#include <cstdio>
#include <fstream>

namespace speedkit::obs {

namespace {

JsonValue HistogramToJson(const Histogram& h) {
  return JsonRow({
      {"count", h.count()},
      {"min", h.min()},
      {"max", h.max()},
      {"mean", h.Mean()},
      {"p50", h.P50()},
      {"p95", h.P95()},
      {"p99", h.P99()},
  });
}

// RFC-4180 quoting, applied only when needed so the common case stays
// grep-able.
std::string CsvField(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

JsonValue MetricsToJson(const MetricsRegistry& registry) {
  JsonValue out = JsonValue::Array();
  for (const auto& m : registry.metrics()) {
    JsonValue row = JsonRow({
        {"name", m->name},
        {"labels", m->labels},
        {"kind", std::string(MetricKindName(m->kind))},
    });
    switch (m->kind) {
      case MetricKind::kCounter:
        row.Set("value", m->counter);
        break;
      case MetricKind::kGauge:
        row.Set("value", m->gauge);
        break;
      case MetricKind::kHistogram:
        row.Set("histogram", HistogramToJson(m->histogram));
        break;
    }
    out.Push(std::move(row));
  }
  return out;
}

JsonValue MetricsDocument(const MetricsRegistry& registry,
                          const MetaList& meta) {
  JsonValue root = JsonValue::Object();
  for (const auto& [key, value] : meta) root.Set(key, value);
  root.Set("metrics", MetricsToJson(registry));
  return root;
}

bool WriteMetricsJson(const std::string& path, const MetricsRegistry& registry,
                      const MetaList& meta) {
  return WriteJsonFile(path, MetricsDocument(registry, meta));
}

bool WriteMetricsCsv(const std::string& path,
                     const MetricsRegistry& registry) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << "name,labels,kind,count,value,mean,p50,p95,p99,max\n";
  for (const auto& m : registry.metrics()) {
    out << CsvField(m->name) << ',' << CsvField(m->labels) << ','
        << MetricKindName(m->kind) << ',';
    switch (m->kind) {
      case MetricKind::kCounter:
        out << m->counter << ',' << m->counter << ",,,,,\n";
        break;
      case MetricKind::kGauge:
        out << 1 << ',' << m->gauge << ",,,,,\n";
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = m->histogram;
        out << h.count() << ',' << h.Sum() << ',' << h.Mean() << ','
            << h.P50() << ',' << h.P95() << ',' << h.P99() << ',' << h.max()
            << "\n";
        break;
      }
    }
  }
  return out.good();
}

bool WriteTraceCsv(const std::string& path,
                   const std::vector<RequestTrace>& traces,
                   const MetaList& meta) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  for (const auto& [key, value] : meta) {
    out << "# " << key << "=" << value << "\n";
  }
  out << "row,trace_id,kind,span,parent,name,tier,start_us,duration_us,"
         "url,status,degraded\n";
  for (const RequestTrace& t : traces) {
    out << "trace," << t.id << ',' << CsvField(t.kind) << ",-1,-1,"
        << CsvField(t.kind) << ',' << CsvField(t.tier) << ',' << t.start_us
        << ',' << t.latency_us << ',' << CsvField(t.url) << ',' << t.status
        << ',' << (t.degraded ? 1 : 0) << "\n";
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      out << "span," << t.id << ',' << CsvField(t.kind) << ',' << i << ','
          << s.parent << ',' << CsvField(s.name) << ',' << CsvField(s.tier)
          << ',' << s.start_us << ',' << s.duration_us << ",,,\n";
    }
  }
  return out.good();
}

}  // namespace speedkit::obs
