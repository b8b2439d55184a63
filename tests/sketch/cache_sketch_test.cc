#include "sketch/cache_sketch.h"

#include <gtest/gtest.h>

#include <string>

#include "coherence/sketch_publication.h"
#include "common/strings.h"

namespace speedkit::sketch {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

// The snapshot clients receive at `now`, decoded from the published bytes.
BloomFilter Published(CacheSketch& sketch, SimTime now) {
  coherence::SketchPublication publication(&sketch);
  return BloomFilter::Deserialize(*publication.Serialized(now)).value();
}

TEST(CacheSketchTest, ReportedKeyAppearsInSnapshot) {
  CacheSketch sketch;
  sketch.ReportInvalidation("k1", At(60), At(0));
  EXPECT_TRUE(Published(sketch, At(1)).MightContain("k1"));
  EXPECT_TRUE(sketch.Contains("k1"));
  EXPECT_EQ(sketch.entries(), 1u);
}

TEST(CacheSketchTest, KeyExpiresAtStaleHorizon) {
  CacheSketch sketch;
  sketch.ReportInvalidation("k1", At(60), At(0));
  EXPECT_TRUE(Published(sketch, At(59)).MightContain("k1"));
  // No key is left, so the published filter is empty.
  EXPECT_FALSE(Published(sketch, At(60)).MightContain("k1"));
  EXPECT_EQ(sketch.entries(), 0u);
  EXPECT_EQ(sketch.stats().expirations, 1u);
}

TEST(CacheSketchTest, PastHorizonReportsDropped) {
  CacheSketch sketch;
  sketch.ReportInvalidation("k1", At(5), At(10));  // already expired
  EXPECT_FALSE(sketch.Contains("k1"));
  EXPECT_EQ(sketch.stats().inserts, 0u);
  EXPECT_EQ(sketch.stats().reports, 1u);
}

TEST(CacheSketchTest, ReReportExtendsHorizon) {
  CacheSketch sketch;
  sketch.ReportInvalidation("k1", At(30), At(0));
  sketch.ReportInvalidation("k1", At(90), At(10));  // extend
  EXPECT_EQ(sketch.stats().inserts, 1u);
  EXPECT_EQ(sketch.stats().extensions, 1u);
  EXPECT_TRUE(Published(sketch, At(60)).MightContain("k1"));
  EXPECT_FALSE(Published(sketch, At(90)).MightContain("k1"));
}

TEST(CacheSketchTest, ShorterReReportDoesNotShrinkHorizon) {
  CacheSketch sketch;
  sketch.ReportInvalidation("k1", At(90), At(0));
  sketch.ReportInvalidation("k1", At(30), At(1));  // must not shrink
  EXPECT_TRUE(Published(sketch, At(60)).MightContain("k1"));
}

TEST(CacheSketchTest, ManyKeysExpireIndependently) {
  CacheSketch sketch;
  for (int i = 0; i < 100; ++i) {
    sketch.ReportInvalidation(StrFormat("k%d", i), At(10 + i), At(0));
  }
  sketch.ExpireUntil(At(60));
  // Keys with horizon <= 60s (i <= 50) are gone; later ones remain.
  EXPECT_FALSE(sketch.Contains("k0"));
  EXPECT_FALSE(sketch.Contains("k50"));
  EXPECT_TRUE(sketch.Contains("k51"));
  EXPECT_TRUE(sketch.Contains("k99"));
  EXPECT_EQ(sketch.entries(), 49u);
}

TEST(CacheSketchTest, PublishedBytesDeserialize) {
  CacheSketch sketch;
  coherence::SketchPublication publication(&sketch);
  sketch.ReportInvalidation("k1", At(60), At(0));
  auto filter = BloomFilter::Deserialize(*publication.Serialized(At(1)));
  ASSERT_TRUE(filter.ok());
  EXPECT_TRUE(filter->MightContain("k1"));
}

TEST(CacheSketchTest, ExpirationRemovesFromFilterToo) {
  CacheSketch sketch;
  sketch.ReportInvalidation("solo", At(10), At(0));
  sketch.ExpireUntil(At(10));
  // With the only key gone the published filter is clean again.
  EXPECT_FALSE(Published(sketch, At(11)).MightContain("solo"));
  EXPECT_EQ(Published(sketch, At(11)).PopCount(), 0u);
}

TEST(CacheSketchTest, PublicationContainsAllTrackedKeys) {
  CacheSketch sketch;
  for (int i = 0; i < 500; ++i) {
    sketch.ReportInvalidation(StrFormat("k%d", i), At(100), At(0));
  }
  BloomFilter published = Published(sketch, At(1));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(published.MightContain(StrFormat("k%d", i))) << i;
  }
}

TEST(CacheSketchTest, PublicationSizeScalesWithEntries) {
  CacheSketch sketch;
  for (int i = 0; i < 100; ++i) {
    sketch.ReportInvalidation(StrFormat("k%d", i), At(100), At(0));
  }
  BloomFilter small = Published(sketch, At(1));
  for (int i = 100; i < 10000; ++i) {
    sketch.ReportInvalidation(StrFormat("k%d", i), At(100), At(0));
  }
  BloomFilter large = Published(sketch, At(1));
  EXPECT_LT(small.SizeBytes() * 50, large.SizeBytes());
  // And it keeps the target FPR.
  int false_positives = 0;
  for (int i = 0; i < 20000; ++i) {
    if (small.MightContain("absent" + std::to_string(i))) ++false_positives;
  }
  EXPECT_LT(false_positives / 20000.0, 0.05);
}

TEST(CacheSketchTest, EmptyPublicationIsTiny) {
  CacheSketch sketch;
  BloomFilter published = Published(sketch, At(0));
  EXPECT_EQ(published.PopCount(), 0u);
  EXPECT_LE(published.SizeBytes(), 64u);
}

TEST(CacheSketchTest, StatsTrackSnapshots) {
  CacheSketch sketch;
  coherence::SketchPublication publication(&sketch);
  publication.Serialized(At(0));
  publication.Serialized(At(1));
  EXPECT_EQ(sketch.stats().snapshots, 2u);
}

TEST(CacheSketchTest, FullLifecycleNeverUnderflowsTheFilter) {
  // Inserts, horizon extensions (which must NOT add a second entry), and
  // expirations must balance exactly: once every horizon has passed, no
  // key is tracked and the publication is empty.
  CacheSketch sketch;
  for (int i = 0; i < 200; ++i) {
    sketch.ReportInvalidation(StrFormat("k%d", i), At(10 + i % 50), At(0));
  }
  // Extend some horizons (re-reports of tracked keys).
  for (int i = 0; i < 100; ++i) {
    sketch.ReportInvalidation(StrFormat("k%d", i), At(200), At(5));
  }
  // Shorter re-reports (dropped) and expired reports (dropped) mixed in.
  sketch.ReportInvalidation("k0", At(20), At(6));
  sketch.ReportInvalidation("late", At(3), At(6));
  sketch.ExpireUntil(At(1000));
  EXPECT_EQ(sketch.entries(), 0u);
  EXPECT_EQ(Published(sketch, At(1000)).PopCount(), 0u);
}

}  // namespace
}  // namespace speedkit::sketch
