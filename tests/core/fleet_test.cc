#include "core/fleet.h"

#include <gtest/gtest.h>

#include "core/stack.h"

namespace speedkit::core {
namespace {

TEST(StackConfigValidateTest, DefaultConfigIsValid) {
  StackConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(StackConfigValidateTest, RejectsNonPositiveEdgeCount) {
  StackConfig config;
  config.cdn_edges = 0;
  Status s = config.Validate();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(StackConfigValidateTest, RejectsNonPositiveShards) {
  StackConfig config;
  config.shards = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST(StackConfigValidateTest, RejectsShardsNotDividingEdges) {
  StackConfig config;
  config.cdn_edges = 4;
  config.shards = 3;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.shards = 4;
  EXPECT_TRUE(config.Validate().ok());
  config.shards = 2;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(StackConfigValidateTest, RejectsNonPositiveDelta) {
  StackConfig config;
  config.coherence.delta = Duration::Zero();
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST(ShardOfClientTest, PartitionMatchesFleetOwnership) {
  StackConfig config;
  config.cdn_edges = 8;
  config.shards = 4;
  ShardedFleet fleet(config);
  ASSERT_EQ(fleet.shards(), 4);
  for (uint64_t client = 1; client <= 500; ++client) {
    int owner = ShardOfClient(client, config.cdn_edges, config.shards);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    // Exactly the owning shard claims the client, and nobody else.
    for (int s = 0; s < fleet.shards(); ++s) {
      EXPECT_EQ(fleet.shard(s).OwnsClient(client), s == owner)
          << "client " << client << " shard " << s;
    }
  }
}

TEST(ShardOfClientTest, SingleShardOwnsEverything) {
  for (uint64_t client = 1; client <= 100; ++client) {
    EXPECT_EQ(ShardOfClient(client, 4, 1), 0);
  }
}

http::HttpResponse CacheableResponse() {
  http::HttpResponse resp;
  resp.status_code = 200;
  resp.body = "x";
  resp.headers.Set("Cache-Control", "public, max-age=600");
  resp.generated_at = SimTime::Origin();
  return resp;
}

TEST(ShardedFleetTest, RemotePurgeAppliesAtOwnersNextCoherenceBoundary) {
  StackConfig config;
  config.cdn_edges = 4;
  config.shards = 2;
  config.coherence.delta = Duration::Seconds(30);
  ShardedFleet fleet(config);
  SpeedKitStack& s0 = fleet.shard(0);
  SpeedKitStack& s1 = fleet.shard(1);

  // The owner (shard 1) caches a key on physical edge 1 (its local 0).
  s1.cdn().edge(0).Store("k", CacheableResponse(), s1.clock().Now());

  // A non-owner posts the purge through the mailbox grid.
  s0.cdn().PostRemotePurge(/*physical=*/1, "k", s0.clock().Now());
  EXPECT_EQ(s0.cdn().remote_purges_posted(), 1u);

  // The SENDER crossing its own boundaries never applies the note...
  s0.Advance(Duration::Seconds(90));
  EXPECT_EQ(s1.cdn().edge(0).Lookup("k", s1.clock().Now()).outcome,
            cache::LookupOutcome::kFreshHit);

  // ...and neither does the owner BEFORE its boundary...
  s1.Advance(Duration::Seconds(10));
  EXPECT_EQ(s1.cdn().edge(0).Lookup("k", s1.clock().Now()).outcome,
            cache::LookupOutcome::kFreshHit);
  EXPECT_EQ(s1.cdn().remote_purges_drained(), 0u);

  // ...but the owner's first Δ boundary (t = 30s) drains the batch.
  s1.Advance(Duration::Seconds(25));
  EXPECT_EQ(s1.cdn().remote_purges_drained(), 1u);
  EXPECT_EQ(s1.cdn().remote_purges_effective(), 1u);
  EXPECT_EQ(s1.cdn().edge(0).Lookup("k", s1.clock().Now()).outcome,
            cache::LookupOutcome::kMiss);
}

TEST(ShardedFleetTest, ShardsShareOnePhysicalEdgeTier) {
  StackConfig config;
  config.cdn_edges = 6;
  config.shards = 3;
  ShardedFleet fleet(config);
  EXPECT_EQ(fleet.edge_map()->num_edges(), 6);
  for (int s = 0; s < fleet.shards(); ++s) {
    EXPECT_EQ(fleet.shard(s).shard(), s);
    EXPECT_EQ(fleet.shard(s).cdn().num_edges(), 2);
    EXPECT_EQ(fleet.shard(s).cdn().physical_edges(), 6);
  }
}

}  // namespace
}  // namespace speedkit::core
