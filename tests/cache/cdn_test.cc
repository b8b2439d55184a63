#include "cache/cdn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

namespace speedkit::cache {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

http::HttpResponse CacheableResponse() {
  http::HttpResponse resp;
  resp.status_code = 200;
  resp.body = "x";
  resp.headers.Set("Cache-Control", "public, max-age=60");
  resp.generated_at = At(0);
  return resp;
}

TEST(OriginFlightModeTest, NamesRoundTripThroughParse) {
  for (OriginFlightMode mode :
       {OriginFlightMode::kInstant, OriginFlightMode::kCoalesce}) {
    OriginFlightMode parsed = OriginFlightMode::kInstant;
    ASSERT_TRUE(
        ParseOriginFlightMode(OriginFlightModeName(mode), &parsed).ok());
    EXPECT_EQ(parsed, mode);
  }
}

TEST(OriginFlightModeTest, UnknownNameIsInvalidArgument) {
  OriginFlightMode mode = OriginFlightMode::kCoalesce;
  // A misspelling used to run coalesce silently; "herd" is not a mode.
  for (const char* name : {"coalese", "herd"}) {
    Status s = ParseOriginFlightMode(name, &mode);
    EXPECT_TRUE(s.IsInvalidArgument()) << name;
    EXPECT_NE(s.ToString().find("coalesce"), std::string::npos);
    EXPECT_EQ(mode, OriginFlightMode::kCoalesce);  // not written on failure
  }
}

TEST(CdnTest, RoutingIsStablePerClient) {
  Cdn cdn(8);
  for (uint64_t client = 0; client < 50; ++client) {
    int e = cdn.RouteFor(client);
    EXPECT_EQ(e, cdn.RouteFor(client));
    EXPECT_GE(e, 0);
    EXPECT_LT(e, 8);
  }
}

TEST(CdnTest, RoutingSpreadsClients) {
  Cdn cdn(4);
  int counts[4] = {0};
  for (uint64_t client = 0; client < 4000; ++client) {
    counts[cdn.RouteFor(client)]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

// The old ctor silently clamped num_edges to 1; an edge count < 1 is now
// rejected up front by StackConfig::Validate (tests/core/stack_test.cc) —
// constructing a Cdn directly requires a positive count.
TEST(CdnTest, ShardViewsPartitionThePhysicalTier) {
  Cdn shard0(4, 0, 2);  // owns physical edges 0, 2
  Cdn shard1(4, 1, 2);  // owns physical edges 1, 3
  EXPECT_EQ(shard0.num_edges(), 2);
  EXPECT_EQ(shard1.num_edges(), 2);

  // Physical->local translation: each physical edge is owned by exactly
  // one shard.
  EXPECT_EQ(shard0.LocalIndexOf(0), 0);
  EXPECT_EQ(shard0.LocalIndexOf(1), -1);
  EXPECT_EQ(shard0.LocalIndexOf(2), 1);
  EXPECT_EQ(shard1.LocalIndexOf(1), 0);
  EXPECT_EQ(shard1.LocalIndexOf(3), 1);
  EXPECT_EQ(shard1.LocalIndexOf(4), -1);  // out of range

  // Each shard holds only its own edges: a store at one shard's edge is
  // visible there and at no edge of the other shard.
  shard0.edge(1).Store("k", CacheableResponse());  // physical edge 2
  EXPECT_EQ(shard0.edge(1).Lookup("k", At(1)).outcome,
            LookupOutcome::kFreshHit);
  for (int i = 0; i < shard1.num_edges(); ++i) {
    EXPECT_EQ(shard1.edge(i).Lookup("k", At(1)).outcome, LookupOutcome::kMiss)
        << "shard 1 edge " << i;
  }

  // Every client is owned by exactly one shard, and routing agrees with
  // the ownership partition.
  for (uint64_t client = 1; client <= 200; ++client) {
    EXPECT_NE(shard0.OwnsClient(client), shard1.OwnsClient(client));
    Cdn& owner = shard0.OwnsClient(client) ? shard0 : shard1;
    int local = owner.RouteFor(client);
    EXPECT_GE(local, 0);
    EXPECT_LT(local, owner.num_edges());
  }
}

TEST(CdnTest, FullViewOwnsEveryClient) {
  Cdn cdn(3);
  EXPECT_EQ(cdn.num_edges(), 3);
  for (uint64_t client = 1; client <= 50; ++client) {
    EXPECT_TRUE(cdn.OwnsClient(client));
    EXPECT_EQ(cdn.LocalIndexOf(cdn.RouteFor(client)), cdn.RouteFor(client));
  }
}

TEST(CdnTest, ShardFaultAccountingStaysLocal) {
  Cdn shard0(2, 0, 2);
  Cdn shard1(2, 1, 2);
  shard0.edge(0).Store("k", CacheableResponse());
  shard0.SetEdgeDown(0, true);
  EXPECT_FALSE(shard0.EdgeAvailable(0));
  EXPECT_TRUE(shard1.EdgeAvailable(0));  // shard1's edge 0 = physical 1
  shard0.NoteEdgeReject(0);
  EXPECT_FALSE(shard0.PurgeEdge(0, "k"));  // down edge loses the purge
  EXPECT_EQ(shard0.TotalFaultStats().down_rejects, 1u);
  EXPECT_EQ(shard0.TotalFaultStats().purges_dropped, 1u);
  EXPECT_EQ(shard1.TotalFaultStats().down_rejects, 0u);
  EXPECT_EQ(shard1.TotalFaultStats().purges_dropped, 0u);
  shard0.SetEdgeDown(0, false);
  EXPECT_EQ(shard0.edge(0).Lookup("k", At(1)).outcome,
            LookupOutcome::kFreshHit);  // contents survived the outage
}

TEST(CdnTest, RemotePurgeToDownEdgeIsCountedDropped) {
  // A purge delivered to a down POP is lost and counted at the shard that
  // owns the edge; once the edge is back, the next purge applies.
  Cdn shard0(2, 0, 2);
  Cdn shard1(2, 1, 2);
  shard1.edge(0).Store("k", CacheableResponse());  // physical 1
  shard1.SetEdgeDown(0, true);
  EXPECT_FALSE(shard1.PurgeEdge(0, "k"));
  EXPECT_EQ(shard1.TotalFaultStats().purges_dropped, 1u);
  EXPECT_EQ(shard0.TotalFaultStats().purges_dropped, 0u);
  shard1.SetEdgeDown(0, false);
  EXPECT_EQ(shard1.edge(0).Lookup("k", At(1)).outcome,
            LookupOutcome::kFreshHit);  // contents survived the outage
  EXPECT_TRUE(shard1.PurgeEdge(0, "k"));
  EXPECT_EQ(shard1.edge(0).Lookup("k", At(2)).outcome, LookupOutcome::kMiss);
  EXPECT_EQ(shard1.TotalFaultStats().purges_dropped, 1u);
}

TEST(CdnTest, EdgesAreIndependentCaches) {
  Cdn cdn(2);
  cdn.edge(0).Store("k", CacheableResponse());
  EXPECT_EQ(cdn.edge(0).Lookup("k", At(1)).outcome, LookupOutcome::kFreshHit);
  EXPECT_EQ(cdn.edge(1).Lookup("k", At(1)).outcome, LookupOutcome::kMiss);
}

TEST(CdnTest, PurgeEdgeIsLocal) {
  Cdn cdn(2);
  cdn.edge(0).Store("k", CacheableResponse());
  cdn.edge(1).Store("k", CacheableResponse());
  EXPECT_TRUE(cdn.PurgeEdge(0, "k"));
  EXPECT_EQ(cdn.edge(1).Lookup("k", At(1)).outcome, LookupOutcome::kFreshHit);
}

TEST(CdnTest, TotalStatsAggregates) {
  Cdn cdn(2);
  cdn.edge(0).Store("a", CacheableResponse());
  cdn.edge(1).Store("b", CacheableResponse());
  cdn.edge(0).Lookup("a", At(1));
  cdn.edge(1).Lookup("missing", At(1));
  HttpCacheStats total = cdn.TotalStats();
  EXPECT_EQ(total.stores, 2u);
  EXPECT_EQ(total.fresh_hits, 1u);
  EXPECT_EQ(total.misses, 1u);
}

TEST(CdnTest, EdgesAreSharedCaches) {
  Cdn cdn(1);
  http::HttpResponse priv = CacheableResponse();
  priv.headers.Set("Cache-Control", "private, max-age=60");
  EXPECT_FALSE(cdn.edge(0).Store("k", priv));
}

TEST(CdnTest, EdgeSlotsAreCacheLineAligned) {
  // Adjacent physical edges belong to DIFFERENT shards under the
  // e % shards interleaving, so each shard's edges start on their own
  // cache line.
  for (int s = 0; s < 2; ++s) {
    Cdn cdn(4, s, 2);
    for (int i = 0; i < cdn.num_edges(); ++i) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(&cdn.edge(i)) % kCacheLineBytes,
                0u)
          << "shard " << s << " edge " << i;
    }
  }
}

uint64_t FaultStatsFingerprint(const EdgeFaultStats& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(s.down_rejects);
  mix(s.purges_dropped);
  mix(s.purge_delay_us.Fingerprint());
  return h;
}

TEST(CdnTest, ShardLocalAccumulatorsMergeLikeAFullView) {
  // Each shard counts faults at the edges it owns. Summing the shards'
  // TotalFaultStats must equal — bit for bit, histogram fingerprints
  // included — a one-shard Cdn fed the identical per-physical-edge event
  // sequence.
  auto note_events = [](auto&& reject, auto&& dropped, auto&& scheduled) {
    // A fixed script over PHYSICAL edges 0..3.
    reject(0); reject(0); reject(3);
    dropped(1); dropped(2);
    scheduled(0, Duration::Millis(5));
    scheduled(1, Duration::Millis(70));
    scheduled(2, Duration::Millis(70));
    scheduled(3, Duration::Millis(250));
  };

  // The whole tier as one domain.
  Cdn full(4);
  note_events([&](int e) { full.NoteEdgeReject(e); },
              [&](int e) { full.NotePurgeDropped(e); },
              [&](int e, Duration d) { full.NotePurgeScheduled(e, d); });

  // Two shards; each receives only its owned edges' events, translated to
  // local indices — exactly how the fault schedule mirrors events per
  // shard.
  Cdn s0(4, 0, 2);
  Cdn s1(4, 1, 2);
  auto route = [&](int physical) -> std::pair<Cdn*, int> {
    Cdn* owner = physical % 2 == 0 ? &s0 : &s1;
    return {owner, owner->LocalIndexOf(physical)};
  };
  note_events(
      [&](int e) { auto [c, l] = route(e); c->NoteEdgeReject(l); },
      [&](int e) { auto [c, l] = route(e); c->NotePurgeDropped(l); },
      [&](int e, Duration d) {
        auto [c, l] = route(e);
        c->NotePurgeScheduled(l, d);
      });

  EdgeFaultStats merged = s0.TotalFaultStats();
  merged += s1.TotalFaultStats();
  EdgeFaultStats legacy = full.TotalFaultStats();
  EXPECT_EQ(merged.down_rejects, legacy.down_rejects);
  EXPECT_EQ(merged.purges_dropped, legacy.purges_dropped);
  EXPECT_EQ(FaultStatsFingerprint(merged), FaultStatsFingerprint(legacy));
}

}  // namespace
}  // namespace speedkit::cache
