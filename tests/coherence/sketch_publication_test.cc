// The publication memo: the one way a snapshot leaves the server sketch.
// Serialized() and InstallInto() read one memoized publication that is
// rebuilt only when the tracked key set changes.
#include "coherence/sketch_publication.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/strings.h"

namespace speedkit::coherence {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

TEST(SketchPublicationTest, SameBufferUntilTheKeySetChanges) {
  sketch::CacheSketch sketch;
  SketchPublication publication(&sketch);
  sketch.ReportInvalidation("k1", At(60), At(0));
  std::shared_ptr<const std::string> first = publication.Serialized(At(1));
  EXPECT_EQ(publication.Serialized(At(2)), first);
  EXPECT_EQ(publication.Serialized(At(59)), first);
  EXPECT_EQ(sketch.stats().serializations, 1u);
}

TEST(SketchPublicationTest, InsertAndExpiryEachRepublishOnce) {
  sketch::CacheSketch sketch;
  SketchPublication publication(&sketch);
  sketch.ReportInvalidation("k1", At(60), At(0));
  std::shared_ptr<const std::string> before = publication.Serialized(At(1));
  const uint64_t serializations = sketch.stats().serializations;

  sketch.ReportInvalidation("k2", At(30), At(2));
  std::shared_ptr<const std::string> inserted = publication.Serialized(At(2));
  EXPECT_NE(inserted, before);
  EXPECT_EQ(sketch.stats().serializations, serializations + 1);

  std::shared_ptr<const std::string> expired = publication.Serialized(At(30));
  EXPECT_FALSE(sketch.Contains("k2"));
  EXPECT_NE(expired, inserted);
  EXPECT_EQ(sketch.stats().serializations, serializations + 2);
}

TEST(SketchPublicationTest, HorizonExtensionKeepsTheBuffer) {
  sketch::CacheSketch sketch;
  SketchPublication publication(&sketch);
  sketch.ReportInvalidation("k1", At(60), At(0));
  std::shared_ptr<const std::string> before = publication.Serialized(At(1));
  const uint64_t serializations = sketch.stats().serializations;

  sketch.ReportInvalidation("k1", At(120), At(2));
  EXPECT_EQ(sketch.stats().extensions, 1u);
  EXPECT_EQ(publication.Serialized(At(3)), before);
  // Past the first horizon the stale heap entry pops, but the key stays.
  EXPECT_EQ(publication.Serialized(At(61)), before);
  EXPECT_TRUE(sketch.Contains("k1"));
  EXPECT_EQ(sketch.stats().serializations, serializations);
}

TEST(SketchPublicationTest, InstallMatchesTheSerializedBytes) {
  sketch::CacheSketch sketch;
  SketchPublication publication(&sketch);
  for (int i = 0; i < 300; ++i) {
    sketch.ReportInvalidation(StrFormat("k%d", i), At(60), At(0));
  }
  sketch::ClientSketch client(Duration::Seconds(30));
  size_t wire_bytes = publication.InstallInto(&client, At(1));
  std::shared_ptr<const std::string> bytes = publication.Serialized(At(1));
  EXPECT_EQ(wire_bytes, bytes->size());
  auto decoded = sketch::BloomFilter::Deserialize(*bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_NE(client.filter(), nullptr);
  EXPECT_TRUE(*client.filter() == *decoded);
  // Every client refreshed from the same publication shares one filter.
  sketch::ClientSketch other(Duration::Seconds(30));
  publication.InstallInto(&other, At(2));
  EXPECT_EQ(other.filter(), client.filter());
}

TEST(SketchPublicationTest, NullSketchPublishesOneConstantEmptyFilter) {
  SketchPublication a(nullptr);
  SketchPublication b(nullptr);
  std::shared_ptr<const std::string> bytes = a.Serialized(At(0));
  EXPECT_EQ(b.Serialized(At(100)), bytes);

  sketch::ClientSketch first(Duration::Seconds(30));
  sketch::ClientSketch second(Duration::Seconds(30));
  EXPECT_EQ(a.InstallInto(&first, At(0)), bytes->size());
  EXPECT_EQ(b.InstallInto(&second, At(100)), bytes->size());
  ASSERT_NE(first.filter(), nullptr);
  EXPECT_EQ(second.filter(), first.filter());
  EXPECT_EQ(first.filter()->PopCount(), 0u);
  auto decoded = sketch::BloomFilter::Deserialize(*bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*first.filter() == *decoded);
}

TEST(SketchPublicationTest, SnapshotNeverMissesTrackedKey) {
  // Protocol invariant: the published filter must flag every tracked key —
  // a miss would let a client serve a stale copy. Heavy load included.
  sketch::CacheSketch sketch;
  SketchPublication publication(&sketch);
  for (int i = 0; i < 2000; ++i) {
    sketch.ReportInvalidation("key" + std::to_string(i), At(100), At(0));
  }
  sketch::ClientSketch client(Duration::Seconds(30));
  publication.InstallInto(&client, At(1));
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(client.MightBeStale("key" + std::to_string(i))) << i;
  }
}

}  // namespace
}  // namespace speedkit::coherence
