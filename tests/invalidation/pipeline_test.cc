#include "invalidation/pipeline.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/protocol.h"
#include "origin/origin_server.h"
#include "sketch/client_sketch.h"
#include "ttl/ttl_policy.h"

namespace speedkit::invalidation {
namespace {

http::HttpResponse CacheableResponse(SimTime now) {
  http::HttpResponse resp;
  resp.status_code = 200;
  resp.body = "x";
  resp.headers.Set("Cache-Control", "public, max-age=300");
  resp.generated_at = now;
  return resp;
}

// Writes flow as in a stack: store -> origin (which matches them against
// its registered queries) -> pipeline.
class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : events_(&clock_),
        cdn_(3),
        protocol_(coherence::CoherenceConfig()),
        ttl_policy_(Duration::Seconds(60)),
        origin_(origin::OriginConfig{}, &clock_, &store_, &ttl_policy_,
                &protocol_.publication()),
        pipeline_(Config(), &clock_, &events_, &cdn_, &protocol_,
                  &origin_.expiry_book(), Pcg32(7)) {
    origin_.SetPipeline(&pipeline_);
  }

  static PipelineConfig Config() {
    PipelineConfig config;
    config.purge_median_delay = Duration::Millis(80);
    config.purge_log_sigma = 0.0;  // deterministic purge timing
    return config;
  }

  // Whether a client refreshing at `at` is told `key` may be stale.
  bool FlaggedAt(SimTime at, const std::string& key) {
    sketch::ClientSketch client(Duration::Seconds(30));
    protocol_.publication().InstallInto(&client, at);
    return client.MightBeStale(key);
  }

  void WriteProduct(const std::string& id, int64_t category, double price) {
    store_.Update(id,
                  {{"category", category}, {"price", price}},
                  clock_.Now());
  }

  sim::SimClock clock_;
  sim::EventQueue events_;
  cache::Cdn cdn_;
  coherence::CoherenceProtocol protocol_;
  storage::ObjectStore store_;
  ttl::FixedTtlPolicy ttl_policy_;
  origin::OriginServer origin_;
  InvalidationPipeline pipeline_;
  sketch::CacheSketch& sketch_ = *protocol_.sketch();
};

TEST_F(PipelineTest, WriteSchedulesPurgeOnEveryEdge) {
  std::string key = RecordCacheKey("p1");
  for (int i = 0; i < 3; ++i) {
    cdn_.edge(i).Store(key, CacheableResponse(clock_.Now()));
  }
  WriteProduct("p1", 1, 10.0);
  EXPECT_EQ(pipeline_.stats().purges_scheduled, 3u);
  // Purges have not landed yet.
  EXPECT_EQ(pipeline_.stats().purges_effective, 0u);
  events_.RunUntil(clock_.Now() + Duration::Millis(100));
  EXPECT_EQ(pipeline_.stats().purges_effective, 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cdn_.edge(i).Lookup(key, clock_.Now()).outcome,
              cache::LookupOutcome::kMiss);
  }
}

TEST_F(PipelineTest, WriteEntersSketchUntilStaleHorizon) {
  std::string key = RecordCacheKey("p1");
  // A copy is outstanding until t=200s.
  origin_.expiry_book().RecordServed(
      key, SimTime::Origin() + Duration::Seconds(200));
  WriteProduct("p1", 1, 10.0);
  EXPECT_TRUE(sketch_.Contains(key));
  // Key must stay in snapshots until the horizon passes.
  EXPECT_TRUE(FlaggedAt(SimTime::Origin() + Duration::Seconds(199), key));
  // Past the horizon the sketch is empty, and so is its publication.
  EXPECT_FALSE(FlaggedAt(SimTime::Origin() + Duration::Seconds(201), key));
}

TEST_F(PipelineTest, SketchHorizonCoversPurgePropagation) {
  // No outstanding client copies, but purges take 80ms: the key must stay
  // in the sketch at least that long (an unpurged edge could re-serve it).
  WriteProduct("p1", 1, 10.0);
  std::string key = RecordCacheKey("p1");
  EXPECT_TRUE(sketch_.Contains(key));
  sketch_.ExpireUntil(clock_.Now() + Duration::Millis(79));
  EXPECT_TRUE(sketch_.Contains(key));
  sketch_.ExpireUntil(clock_.Now() + Duration::Millis(81));
  EXPECT_FALSE(sketch_.Contains(key));
}

TEST_F(PipelineTest, AffectedQueryResultsAreInvalidated) {
  Query q;
  q.id = "cat1";
  q.conditions.push_back({"category", Op::kEq, static_cast<int64_t>(1)});
  std::string qkey = QueryCacheKey("cat1");
  ASSERT_TRUE(origin_.RegisterQuery(q).ok());
  cdn_.edge(0).Store(qkey, CacheableResponse(clock_.Now()));
  origin_.expiry_book().RecordServed(
      qkey, SimTime::Origin() + Duration::Seconds(100));

  WriteProduct("p1", 1, 10.0);  // enters cat1
  events_.RunUntil(clock_.Now() + Duration::Seconds(1));
  EXPECT_EQ(cdn_.edge(0).Lookup(qkey, clock_.Now()).outcome,
            cache::LookupOutcome::kMiss);
  EXPECT_TRUE(sketch_.Contains(qkey));
}

TEST_F(PipelineTest, UnrelatedQueryNotInvalidated) {
  Query q;
  q.id = "cat9";
  q.conditions.push_back({"category", Op::kEq, static_cast<int64_t>(9)});
  ASSERT_TRUE(origin_.RegisterQuery(q).ok());
  WriteProduct("p1", 1, 10.0);
  EXPECT_FALSE(sketch_.Contains(QueryCacheKey("cat9")));
  // Record key itself is invalidated exactly once.
  EXPECT_EQ(pipeline_.stats().keys_invalidated, 1u);
}

TEST_F(PipelineTest, PropagationLatencyRecorded) {
  WriteProduct("p1", 1, 10.0);
  EXPECT_EQ(pipeline_.propagation_latency_us().count(), 1u);
  // With zero jitter: last purge = median delay.
  EXPECT_NEAR(static_cast<double>(
                  pipeline_.propagation_latency_us().max()),
              80000.0, 2600.0);
}

TEST_F(PipelineTest, TotalPurgeLossDropsDeliveriesButKeepsSketchCoverage) {
  sim::FaultScheduleConfig fc;
  fc.purge_loss_probability = 1.0;
  pipeline_.SetFaults(&fc);

  std::string key = RecordCacheKey("p1");
  for (int i = 0; i < 3; ++i) {
    cdn_.edge(i).Store(key, CacheableResponse(clock_.Now()));
  }
  // A client copy is outstanding until t=200s — the ExpiryBook, not purge
  // acknowledgements, is what sizes the sketch horizon.
  origin_.expiry_book().RecordServed(
      key, SimTime::Origin() + Duration::Seconds(200));
  WriteProduct("p1", 1, 10.0);
  EXPECT_EQ(pipeline_.stats().purges_scheduled, 3u);
  EXPECT_EQ(pipeline_.stats().purges_dropped, 3u);
  EXPECT_EQ(cdn_.TotalFaultStats().purges_dropped, 3u);
  events_.RunUntil(clock_.Now() + Duration::Seconds(1));
  // No purge ever landed: the edges still hold the stale copies...
  EXPECT_EQ(pipeline_.stats().purges_effective, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(cdn_.edge(i).Lookup(key, clock_.Now()).outcome,
              cache::LookupOutcome::kMiss);
  }
  // ...but the sketch still flags the key for the outstanding copy's full
  // TTL, so sketch-checking clients revalidate regardless — this is why
  // Δ-atomicity survives ANY purge-loss rate.
  EXPECT_TRUE(sketch_.Contains(key));
  EXPECT_TRUE(FlaggedAt(SimTime::Origin() + Duration::Seconds(199), key));
}

TEST_F(PipelineTest, ZeroProbabilityScheduleChangesNothing) {
  sim::FaultScheduleConfig faults;
  pipeline_.SetFaults(&faults);
  std::string key = RecordCacheKey("p1");
  for (int i = 0; i < 3; ++i) {
    cdn_.edge(i).Store(key, CacheableResponse(clock_.Now()));
  }
  WriteProduct("p1", 1, 10.0);
  events_.RunUntil(clock_.Now() + Duration::Millis(100));
  EXPECT_EQ(pipeline_.stats().purges_dropped, 0u);
  EXPECT_EQ(pipeline_.stats().purges_effective, 3u);
  // Same landing time as the no-schedule runs (zero probabilities draw no
  // RNG, so timing draws stay aligned).
  EXPECT_NEAR(
      static_cast<double>(pipeline_.propagation_latency_us().max()),
      80000.0, 2600.0);
}

TEST_F(PipelineTest, WatchQueryAcceptsOnlyTheQueryCacheKey) {
  Query q;
  q.id = "cat1";
  EXPECT_TRUE(pipeline_.WatchQuery(q, QueryCacheKey("cat1")).ok());
  EXPECT_EQ(pipeline_.WatchQuery(q, RecordCacheKey("cat1")).code(),
            StatusCode::kInvalidArgument);
}

// A seeded stream of puts, price and category updates, deletes and
// re-inserts against unlimited, sorted and limited queries. Each write
// invalidates exactly its record's key and the key of every query it
// affects (read from the purge traces), in key order; the version
// listener dates the bumped results, then the record.
TEST_F(PipelineTest, SeededWritesInvalidateRecordAndEveryAffectedQuery) {
  std::vector<Query> queries;
  for (int64_t c = 0; c < 3; ++c) {
    Query all;
    all.id = "cat" + std::to_string(c);
    all.conditions.push_back({"category", Op::kEq, c});
    Query sorted = all;
    sorted.id += "-by-price";
    sorted.order_by = "price";
    Query top = sorted;
    top.id = all.id + "-top2";
    top.descending = c == 1;
    top.limit = 2;
    queries.insert(queries.end(), {all, sorted, top});
  }
  Query cheap;
  cheap.id = "cheap";
  cheap.conditions.push_back({"price", Op::kLt, 20.0});
  queries.push_back(cheap);
  for (const Query& q : queries) ASSERT_TRUE(origin_.RegisterQuery(q).ok());

  obs::InMemoryTraceSink sink;
  obs::Tracer tracer(&sink);
  pipeline_.SetTracer(&tracer);
  std::vector<std::pair<std::string, uint64_t>> versions;
  origin_.SetVersionListener([&](const std::string& key, uint64_t version) {
    versions.emplace_back(key, version);
  });
  // Brute force over the images the store hands its listeners.
  std::set<std::string> expected;
  store_.AddWriteListener(
      [&](const storage::Record* before, const storage::Record& after) {
        expected = {RecordCacheKey(after.id)};
        for (const Query& q : queries) {
          if (q.AffectedBy(before, after)) expected.insert(QueryCacheKey(q.id));
        }
      });

  Pcg32 rng(2026);
  int deletes = 0;
  int matched_but_unchanged = 0;
  for (int step = 0; step < 3000; ++step) {
    std::string id = "p" + std::to_string(rng.NextBounded(12));
    // Category 3 is in no category query.
    int64_t category = rng.NextBounded(4);
    double price = 5.0 + rng.NextBounded(30);
    versions.clear();
    size_t traced = sink.traces().size();
    switch (rng.NextBounded(4)) {
      case 0:
        store_.Put(id, {{"category", category}, {"price", price}},
                   clock_.Now());
        break;
      case 1:
        store_.Update(id, {{"price", price}}, clock_.Now());
        break;
      case 2:
        store_.Update(id, {{"category", category}}, clock_.Now());
        break;
      default:
        if (!store_.Delete(id, clock_.Now()).ok()) continue;
        deletes++;
    }

    std::vector<std::string> invalidated;
    for (size_t i = traced; i < sink.traces().size(); ++i) {
      EXPECT_EQ(sink.traces()[i].kind, obs::kTraceKindPurge);
      invalidated.push_back(sink.traces()[i].url);
    }
    ASSERT_EQ(invalidated,
              std::vector<std::string>(expected.begin(), expected.end()))
        << "step " << step;
    ASSERT_FALSE(versions.empty());
    EXPECT_EQ(versions.back(),
              std::make_pair(RecordCacheKey(id), store_.VersionOf(id)));
    for (size_t i = 0; i + 1 < versions.size(); ++i) {
      EXPECT_NE(versions[i].first, RecordCacheKey(id));
      EXPECT_EQ(expected.count(versions[i].first), 1u) << versions[i].first;
    }
    matched_but_unchanged += expected.size() > versions.size();
    events_.RunUntil(clock_.Now() + Duration::Millis(250));
  }
  // The stream reaches deletes, and writes that touch a limited query
  // outside its visible slice: invalidated, though its result is unchanged.
  EXPECT_GT(deletes, 100);
  EXPECT_GT(matched_but_unchanged, 100);
}

TEST(PipelineStandaloneTest, WorksWithoutSketchAndCdn) {
  sim::SimClock clock;
  sim::EventQueue events(&clock);
  PipelineConfig config;
  InvalidationPipeline pipeline(config, &clock, &events, nullptr, nullptr,
                                nullptr, Pcg32(1));
  pipeline.OnWrite(RecordCacheKey("p1"), {});  // must not crash
  EXPECT_EQ(pipeline.stats().keys_invalidated, 1u);
  EXPECT_EQ(pipeline.stats().purges_scheduled, 0u);
}

}  // namespace
}  // namespace speedkit::invalidation
