// E1 — Cache Sketch sizing: measured vs. analytic false-positive rate
// across entry counts, bits/entry and hash counts.
//
// Reproduces the Bloom-filter sizing analysis behind the Cache Sketch
// (companion BTW'15 paper, filter-dimensioning figure): measured FPR must
// track the analytic curve, the optimal k must sit at the minimum, and a
// sketch false positive only ever costs an unnecessary revalidation.
#include <cmath>
#include <string>
#include <utility>

#include "bench/harness.h"
#include "sketch/bloom_filter.h"

namespace speedkit {
namespace {

std::string Key(size_t i) {
  return "https://shop.example.com/api/records/p" + std::to_string(i);
}

double MeasureFpr(const sketch::BloomFilter& filter, size_t inserted,
                  int probes) {
  int false_positives = 0;
  for (int i = 0; i < probes; ++i) {
    if (filter.MightContain("absent/" + std::to_string(i) + "/" +
                            std::to_string(inserted))) {
      ++false_positives;
    }
  }
  return static_cast<double>(false_positives) / probes;
}

double AnalyticFpr(size_t bits, int k, size_t n) {
  double exponent = -static_cast<double>(k) * static_cast<double>(n) /
                    static_cast<double>(bits);
  return std::pow(1.0 - std::exp(exponent), k);
}

void SweepBitsPerKey(bench::JsonValue* rows) {
  bench::Table table("FPR vs bits/entry (k = optimal), n stale entries",
                     "bits_per_key",
                     {{"n"},
                      {"bits_per_key"},
                      {"k"},
                      {"measured_fpr", 4, true},
                      {"analytic_fpr", 4, true},
                      {"snapshot_bytes"}});
  for (size_t n : {1000u, 10000u, 100000u}) {
    for (int bits_per_key : {4, 8, 12, 16, 20}) {
      size_t bits = n * static_cast<size_t>(bits_per_key);
      int k = sketch::BloomFilter::OptimalHashes(bits, n);
      sketch::BloomFilter filter(bits, k);
      for (size_t i = 0; i < n; ++i) filter.Add(Key(i));
      rows->Push(table.Add({n, bits_per_key, k, MeasureFpr(filter, n, 200000),
                            AnalyticFpr(filter.bits(), k, n),
                            filter.SizeBytes() + 8}));
    }
  }
}

void SweepHashCount(bench::JsonValue* rows) {
  constexpr size_t kN = 10000;
  constexpr size_t kBits = kN * 10;
  bench::Table table(
      "FPR vs hash count at fixed 10 bits/entry (n=10000)", "hash_count",
      {{"k"}, {"measured_fpr", 4, true}, {"analytic_fpr", 4, true}});
  for (int k = 1; k <= 12; ++k) {
    sketch::BloomFilter filter(kBits, k);
    for (size_t i = 0; i < kN; ++i) filter.Add(Key(i));
    rows->Push(table.Add({k, MeasureFpr(filter, kN, 200000),
                          AnalyticFpr(filter.bits(), k, kN)}));
  }
  bench::Note("minimum should fall near k = 10 * ln2 ~ 7");
}

void SweepTargetFpr(bench::JsonValue* rows) {
  bench::Table table("auto-sizing ForCapacity(n, p): achieved vs requested",
                     "target_fpr",
                     {{"n"},
                      {"target_fpr", 3, true},
                      {"measured_fpr", 4, true},
                      {"bits_per_key", 1},
                      {"snapshot_bytes"}});
  for (size_t n : {1000u, 20000u}) {
    for (double p : {0.2, 0.1, 0.05, 0.01, 0.001}) {
      sketch::BloomFilter filter = sketch::BloomFilter::ForCapacity(n, p);
      for (size_t i = 0; i < n; ++i) filter.Add(Key(i));
      rows->Push(table.Add({n, p, MeasureFpr(filter, n, 200000),
                            static_cast<double>(filter.bits()) / n,
                            filter.SizeBytes() + 8}));
    }
  }
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "sketch_fpr");
  h.RejectUnreadFlags(bench::SharedFlags::kNone);
  bench::PrintHeader(
      "E1", "Cache Sketch false-positive rate vs sizing",
      "Bloom-filter dimensioning of the Cache Sketch (coherence protocol "
      "overhead knob)");
  bench::JsonValue rows = bench::JsonValue::Array();
  SweepBitsPerKey(&rows);
  SweepHashCount(&rows);
  SweepTargetFpr(&rows);
  h.Finish(std::move(rows));
  return 0;
}
