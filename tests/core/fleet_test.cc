#include "core/fleet.h"

#include <gtest/gtest.h>

#include <string>

#include "core/stack.h"
#include "invalidation/pipeline.h"

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

sim::FaultWindow Window(double start_s, double end_s) {
  return {SimTime::Origin() + Duration::Seconds(start_s),
          SimTime::Origin() + Duration::Seconds(end_s)};
}

// The stack mirrors a window into a down event at start and an up event at
// end, so a backwards window would leave its node down for good.
TEST(StackConfigValidateTest, RejectsOutageWindowsThatDoNotRunForward) {
  StackConfig config;
  config.faults.origin = {Window(30, 10)};
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.faults.origin = {Window(10, 10)};
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.faults.origin = {Window(10, 30)};
  EXPECT_TRUE(config.Validate().ok());
  config.faults.edges = {{}, {Window(40, 20)}};
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

// Overlapping windows of one node would bring it back up at the first
// window's end, inside the second.
TEST(StackConfigValidateTest, RejectsOverlappingOutageWindowsOfOneNode) {
  StackConfig config;
  config.faults.origin = {Window(10, 30), Window(20, 40)};
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  // Touching windows tie at the shared instant; one window [10, 40) says
  // the same.
  config.faults.origin = {Window(20, 40), Window(10, 20)};
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.faults.origin = {Window(30, 40), Window(10, 20)};
  EXPECT_TRUE(config.Validate().ok());

  config.faults.edges = {{Window(15, 35)}, {Window(10, 30), Window(5, 12)}};
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  // Windows of different nodes may overlap.
  config.faults.edges = {{Window(15, 35)}, {Window(10, 30)}};
  EXPECT_TRUE(config.Validate().ok());
}

// The stack would have no edge to take down, so a mistyped edge index
// would inject no outage at all.
TEST(StackConfigValidateTest, RejectsOutageWindowsForMissingEdges) {
  StackConfig config;
  config.cdn_edges = 4;
  config.faults.edges = {{}, {}, {}, {Window(10, 20)}};
  EXPECT_TRUE(config.Validate().ok());
  config.faults.edges.push_back({Window(10, 20)});
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  // An empty list for a fifth edge names an edge the tier lacks too.
  config.faults.edges.back().clear();
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

http::HttpResponse CacheableResponse() {
  http::HttpResponse resp;
  resp.status_code = 200;
  resp.body = "x";
  resp.headers.Set("Cache-Control", "public, max-age=600");
  resp.generated_at = SimTime::Origin();
  return resp;
}

TEST(ShardedFleetTest, EveryShardPurgesTheEdgesItOwns) {
  // No purge crosses shards: a write reaches only its own shard's store
  // replica, whose pipeline purges every edge that shard owns. Once the
  // purges land, no event is left pending on any shard.
  StackConfig config;
  config.cdn_edges = 4;
  config.shards = 2;
  ShardedFleet fleet(config);
  const std::string key = invalidation::RecordCacheKey("p1");
  for (int s = 0; s < fleet.shards(); ++s) {
    SpeedKitStack& shard = fleet.shard(s);
    for (int i = 0; i < shard.cdn().num_edges(); ++i) {
      shard.cdn().edge(i).Store(key, CacheableResponse());
    }
    shard.store().Put("p1", {}, shard.clock().Now());
    shard.Advance(Duration::Seconds(5));
  }

  const SimTime now = SimTime::Origin() + Duration::Seconds(5);
  for (int s = 0; s < fleet.shards(); ++s) {
    SpeedKitStack& shard = fleet.shard(s);
    for (int i = 0; i < shard.cdn().num_edges(); ++i) {
      EXPECT_EQ(shard.cdn().edge(i).Lookup(key, now).outcome,
                cache::LookupOutcome::kMiss)
          << "shard " << s << " edge " << i;
    }
    EXPECT_EQ(shard.pipeline()->stats().purges_effective, 2u) << "shard " << s;
    EXPECT_EQ(shard.events().pending(), 0u) << "shard " << s;
  }
}

TEST(ShardedFleetTest, ShardsShareOnePhysicalEdgeTier) {
  StackConfig config;
  config.cdn_edges = 6;
  config.shards = 3;
  ShardedFleet fleet(config);
  for (int s = 0; s < fleet.shards(); ++s) {
    EXPECT_EQ(fleet.shard(s).shard(), s);
    EXPECT_EQ(fleet.shard(s).cdn().num_edges(), 2);
  }
  // Together the shards hold the whole physical tier, each edge once.
  for (int e = 0; e < config.cdn_edges; ++e) {
    int holders = 0;
    for (int s = 0; s < fleet.shards(); ++s) {
      if (fleet.shard(s).cdn().LocalIndexOf(e) >= 0) ++holders;
    }
    EXPECT_EQ(holders, 1) << "physical edge " << e;
  }
}

TEST(ShardedFleetTest, EveryClientHasExactlyOneOwningShard) {
  StackConfig config;
  config.cdn_edges = 8;
  config.shards = 4;
  ShardedFleet fleet(config);
  ASSERT_EQ(fleet.shards(), 4);
  for (uint64_t client = 1; client <= 500; ++client) {
    int owners = 0;
    for (int s = 0; s < fleet.shards(); ++s) {
      if (fleet.shard(s).OwnsClient(client)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "client " << client;
  }
}

}  // namespace
}  // namespace speedkit::core
