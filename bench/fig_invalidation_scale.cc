// E6 — Invalidation pipeline scalability: real-time query matching
// throughput vs. subscription count, with and without the equality index,
// plus purge propagation latency.
//
// Reproduces the InvaliDB-style scalability story the paper's pipeline
// depends on: matching must stay fast as the number of watched query
// results grows, which is what equality-indexed matching buys; the
// full-scan ablation shows the cliff it avoids.
#include <chrono>
#include <string>
#include <utility>

#include "bench/harness.h"
#include "coherence/delta_atomic.h"
#include "common/histogram.h"
#include "common/random.h"
#include "invalidation/pipeline.h"
#include "invalidation/query_matcher.h"

namespace speedkit {
namespace {

using Clock = std::chrono::steady_clock;

storage::Record MakeProduct(size_t id, int64_t category, double price) {
  storage::Record r;
  r.id = "p" + std::to_string(id);
  r.version = 1;
  r.fields["category"] = category;
  r.fields["price"] = price;
  return r;
}

// Registers `n` subscriptions: 90% category equalities (indexable), 10%
// narrow price bands (range predicates land on the scan list — no
// equality to index on). Bands are selective, like real watched queries
// ("deals between 40 and 45 euros"), so output size stays small and the
// measurement reflects probing cost.
void Populate(invalidation::QueryMatcher* matcher, size_t n,
              int64_t categories) {
  for (size_t i = 0; i < n; ++i) {
    invalidation::Query q;
    q.id = "q" + std::to_string(i);
    if (i % 10 != 0) {
      q.conditions.push_back({"category", invalidation::Op::kEq,
                              static_cast<int64_t>(i % categories)});
    } else {
      double lo = static_cast<double>(i % 195);
      q.conditions.push_back({"price", invalidation::Op::kGe, lo});
      q.conditions.push_back({"price", invalidation::Op::kLt, lo + 5.0});
    }
    matcher->Subscribe(std::move(q));
  }
}

double MeasureWritesPerSec(invalidation::QueryMatcher* matcher, int writes,
                           int64_t categories) {
  Pcg32 rng(7);
  auto start = Clock::now();
  size_t hits = 0;
  for (int i = 0; i < writes; ++i) {
    storage::Record before = MakeProduct(
        i, static_cast<int64_t>(rng.NextBounded(
               static_cast<uint32_t>(categories))),
        rng.Uniform(1, 200));
    storage::Record after = before;
    after.fields["price"] = rng.Uniform(1, 200);
    after.version = 2;
    hits += matcher->MatchWrite(&before, after).size();
  }
  double secs = std::chrono::duration<double>(Clock::now() - start).count();
  return writes / secs;
}

void ThroughputSweep(bench::JsonValue* rows) {
  bench::Table table(
      "matching throughput (writes/s) vs subscriptions; 200 categories",
      "matching_throughput",
      {{"subscriptions"},
       {"indexed_writes_per_s", 0},
       {"fullscan_writes_per_s", 0}});
  constexpr int64_t kCategories = 200;
  for (size_t subs : {1000u, 10000u, 100000u, 300000u}) {
    int writes = subs >= 100000 ? 2000 : 20000;
    invalidation::QueryMatcher indexed_matcher(/*use_index=*/true);
    Populate(&indexed_matcher, subs, kCategories);
    invalidation::QueryMatcher scan_matcher(/*use_index=*/false);
    Populate(&scan_matcher, subs, kCategories);
    int scan_writes = subs >= 100000 ? 50 : 500;
    double indexed =
        MeasureWritesPerSec(&indexed_matcher, writes, kCategories);
    double fullscan =
        MeasureWritesPerSec(&scan_matcher, scan_writes, kCategories);
    rows->Push(table.Add({subs, indexed, fullscan}));
  }
  bench::Note("the index prunes equality subscriptions to ~n/200 probes; "
              "the residual cost is the un-indexable range subscriptions "
              "(10% here) — the load InvaliDB spreads across cluster "
              "partitions");
}

void PurgePropagation(bench::JsonValue* rows) {
  bench::Table table("purge propagation latency (write -> last edge clean)",
                     "purge_propagation",
                     {{"edges"}, {"p50_ms", 1}, {"p99_ms", 1}, {"max_ms", 1}});
  for (int edges : {2, 4, 8, 16, 32}) {
    sim::SimClock clock;
    sim::EventQueue events(&clock);
    cache::Cdn cdn(edges, 0);
    coherence::DeltaAtomicProtocol protocol{coherence::CoherenceConfig()};
    invalidation::PipelineConfig config;  // 80ms median, lognormal 0.4
    invalidation::ExpiryBook no_copies_served;
    invalidation::InvalidationPipeline pipeline(config, &clock, &events, &cdn,
                                                &protocol, &no_copies_served,
                                                Pcg32(3));
    for (int i = 0; i < 2000; ++i) {
      pipeline.OnWrite(invalidation::RecordCacheKey("p" + std::to_string(i)),
                       {});
      events.RunUntil(clock.Now() + Duration::Seconds(1));
    }
    const Histogram& h = pipeline.propagation_latency_us();
    rows->Push(table.Add({edges, h.P50() / 1e3, h.P99() / 1e3, h.max() / 1e3}));
  }
  bench::Note("latency is max over edges: grows ~logarithmically with edge "
              "count under lognormal per-edge jitter");
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "invalidation_scale");
  bench::PrintHeader(
      "E6", "Invalidation pipeline scalability",
      "InvaliDB-style real-time query matching + CDN purge fan-out that "
      "the coherence protocol rides on");
  bench::JsonValue rows = bench::JsonValue::Array();
  ThroughputSweep(&rows);
  PurgePropagation(&rows);
  h.Finish(std::move(rows));
  return 0;
}
