#include "sketch/client_sketch.h"

#include <gtest/gtest.h>

#include "coherence/sketch_publication.h"
#include "sketch/cache_sketch.h"

namespace speedkit::sketch {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

TEST(ClientSketchTest, FreshClientNeedsRefreshAndAnswersConservatively) {
  ClientSketch client(Duration::Seconds(30));
  EXPECT_TRUE(client.NeedsRefresh(At(0)));
  EXPECT_FALSE(client.HasSnapshot());
  // No snapshot: everything might be stale.
  EXPECT_TRUE(client.MightBeStale("anything"));
  EXPECT_EQ(client.Age(At(0)), Duration::Max());
}

TEST(ClientSketchTest, UpdateInstallsSnapshot) {
  ClientSketch client(Duration::Seconds(30));
  BloomFilter filter(1024, 4);
  filter.Add("stale-key");
  ASSERT_TRUE(client.Update(filter.Serialize().value(), At(5)).ok());
  EXPECT_TRUE(client.HasSnapshot());
  EXPECT_TRUE(client.MightBeStale("stale-key"));
  EXPECT_FALSE(client.MightBeStale("fresh-key"));
  EXPECT_EQ(client.fetched_at(), At(5));
}

TEST(ClientSketchTest, RefreshDueExactlyAtDelta) {
  ClientSketch client(Duration::Seconds(30));
  ASSERT_TRUE(client.Update(BloomFilter(64, 1).Serialize().value(), At(0)).ok());
  EXPECT_FALSE(client.NeedsRefresh(At(29.999)));
  EXPECT_TRUE(client.NeedsRefresh(At(30)));
}

TEST(ClientSketchTest, AgeTracksSnapshot) {
  ClientSketch client(Duration::Seconds(30));
  ASSERT_TRUE(client.Update(BloomFilter(64, 1).Serialize().value(), At(10)).ok());
  EXPECT_EQ(client.Age(At(25)), Duration::Seconds(15));
}

TEST(ClientSketchTest, CorruptSnapshotRejectedKeepsOld) {
  ClientSketch client(Duration::Seconds(30));
  BloomFilter filter(1024, 4);
  filter.Add("k");
  ASSERT_TRUE(client.Update(filter.Serialize().value(), At(0)).ok());
  EXPECT_FALSE(client.Update("garbage", At(10)).ok());
  // Old snapshot still answers.
  EXPECT_TRUE(client.MightBeStale("k"));
  EXPECT_EQ(client.fetched_at(), At(0));
}

// The sketch keeps no counters of its own (the proxy's ProxyStats counts
// refreshes, their bytes and the bypasses); the count of positive checks
// is read off the answers.
TEST(ClientSketchTest, StatsCountChecksAndPositives) {
  ClientSketch client(Duration::Seconds(30));
  BloomFilter filter(1024, 4);
  filter.Add("hit");
  ASSERT_TRUE(client.Update(filter.Serialize().value(), At(0)).ok());
  int positives = 0;
  for (const char* key : {"hit", "miss", "miss2"}) {
    positives += client.MightBeStale(key) ? 1 : 0;
  }
  EXPECT_EQ(positives, 1);
  EXPECT_EQ(client.fetched_at(), At(0));
}

TEST(ClientSketchTest, EndToEndWithServerSketch) {
  CacheSketch server;
  coherence::SketchPublication publication(&server);
  ClientSketch client(Duration::Seconds(10));
  server.ReportInvalidation("k1", At(120), At(0));
  ASSERT_TRUE(client.Update(*publication.Serialized(At(1)), At(1)).ok());
  EXPECT_TRUE(client.MightBeStale("k1"));
  EXPECT_FALSE(client.MightBeStale("k2"));
  // After server-side expiry, the next refresh clears the flag.
  ASSERT_TRUE(
      client.Update(*publication.Serialized(At(121)), At(121)).ok());
  EXPECT_FALSE(client.MightBeStale("k1"));
}

}  // namespace
}  // namespace speedkit::sketch
