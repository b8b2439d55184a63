#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

// Keeps the calibration kernel's work observable.
volatile uint64_t g_calibration_sink = 0;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Every digit the double carries; non-finite values become null, which
// run.py rejects.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  size_t index = rank == 0 ? 0 : rank - 1;
  if (index >= values.size()) index = values.size() - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double CalibrationSeconds() {
  // The fastest of three passes, so that one pass that finds the heap cold
  // or is preempted does not count.
  constexpr int kPasses = 3;
  constexpr size_t kKeys = 8192;
  double best = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const Clock::time_point t0 = Clock::now();
    {
      std::unordered_map<std::string, std::string> map;
      for (size_t i = 0; i < kKeys; ++i) {
        map.emplace("calibration-key-" + std::to_string(i),
                    std::string(96, static_cast<char>('a' + i % 26)));
      }
      uint64_t sum = 0;
      for (const auto& [key, value] : map) sum += key.size() + value[0];
      g_calibration_sink = g_calibration_sink + sum;
    }
    const double seconds = SecondsSince(t0);
    if (pass == 0 || seconds < best) best = seconds;
  }
  return best;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Report::Set(const std::string& name, const std::string& unit,
                 double value, uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, unit, value, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, unit, value, samples});
}

void Report::SetPercentiles(const std::string& name, const std::string& unit,
                            std::vector<double> values) {
  uint64_t n = values.size();
  Set(name + ".p50", unit, Quantile(values, 0.50), n);
  Set(name + ".p99", unit, Quantile(values, 0.99), n);
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Info(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  info_.emplace_back(key, buf);
}

void Report::Info(const std::string& key, const std::vector<double>& values) {
  std::string joined;
  for (double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.6g", joined.empty() ? "" : ",", v);
    joined += buf;
  }
  info_.emplace_back(key, joined);
}

void Report::Check(const std::string& name, bool passed,
                   const std::string& detail) {
  checks_.push_back(CheckResult{name, passed, detail});
}

bool Report::AllChecksPassed() const {
  for (const CheckResult& c : checks_) {
    if (!c.passed) return false;
  }
  return true;
}

void Report::PrintText() const {
  for (const auto& [key, value] : info_) {
    std::printf("info   %-34s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("metric %-34s %16.6g %-6s (n=%llu)\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("metric %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const CheckResult& c : checks_) {
    std::printf("check  %-34s %s  %s\n", c.name.c_str(),
                c.passed ? "ok  " : "FAIL", c.detail.c_str());
  }
  std::printf("counts attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

std::string Report::Json() const {
  std::string out = "{\"info\":{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(info_[i].first) + ":" + JsonString(info_[i].second);
  }
  out += "},\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ",";
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit);
    if (m.samples > 0) out += ",\"samples\":" + std::to_string(m.samples);
    out += "}";
  }
  out += "},\"checks\":{";
  for (size_t i = 0; i < checks_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(checks_[i].name) + ":" +
           (checks_[i].passed ? "true" : "false");
  }
  out += "},\"correct\":";
  out += AllChecksPassed() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + "}";
  return out;
}

}  // namespace perfbench
