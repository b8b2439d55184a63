// Metric collection and output for the perfbench binary.
//
// Every number a run produces lands in one Report under a stable name with
// its unit and, for distributions, the sample count behind it. The binary
// prints the report twice: as aligned text lines for people, and as one
// JSON object on the last line of stdout for perfbench/run.py, which picks
// the metrics BENCHMARK.json names out of it.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return static_cast<double>(NanosSince(start)) / 1e9;
}

// Exact quantile (nearest rank on sorted data) of raw samples; reorders
// `values`. 0 when empty.
double Quantile(std::vector<double>& values, double q);

// Median of a few repeats (copies, so callers keep their order).
double Median(std::vector<double> values);

// num / den, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// 16 hex digits, for digests and fingerprints.
std::string Hex(uint64_t v);

// Host-speed calibration for set-up times. On a shared host the same
// allocation-heavy code runs up to twice as slow in some minutes as in
// others, which would swamp any change to set-up work. Each set-up sample
// is therefore scaled by how long a fixed, benchmark-owned kernel (string
// keys and values into a hash map, then freed) took right before it,
// relative to that kernel's time on the reference host.
inline constexpr double kCalibrationReferenceSeconds = 0.002;
double CalibrationSeconds();
inline double AtReferenceSpeed(double seconds, double calibration_seconds) {
  return calibration_seconds > 0
             ? seconds * kCalibrationReferenceSeconds / calibration_seconds
             : seconds;
}

class Report {
 public:
  // Adds or replaces a metric.
  void Set(const std::string& name, const std::string& unit, double value,
           uint64_t samples = 0);
  // p50 and p99 of `values` as `<name>.p50` / `<name>.p99`, each with the
  // sample count.
  void SetPercentiles(const std::string& name, const std::string& unit,
                      std::vector<double> values);

  // Self-description: CPUs, build type, seed, workload spec.
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);
  // Comma-separated, six significant digits each.
  void Info(const std::string& key, const std::vector<double>& values);

  // A named correctness check; the run is correct iff every check passed.
  void Check(const std::string& name, bool passed, const std::string& detail);
  bool AllChecksPassed() const;

  void SetCounts(uint64_t attempted, uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  // Aligned human-readable lines.
  void PrintText() const;
  // The whole report as one JSON object on one line.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    uint64_t samples = 0;  // 0 = a single measured quantity
  };
  struct CheckResult {
    std::string name;
    bool passed = false;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<CheckResult> checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
