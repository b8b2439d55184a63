#include "personalization/dynamic_block.h"

#include <gtest/gtest.h>

#include "personalization/segmentation.h"

namespace speedkit::personalization {
namespace {

TEST(DynamicBlockTest, ScopeNames) {
  EXPECT_EQ(BlockScopeName(BlockScope::kStatic), "static");
  EXPECT_EQ(BlockScopeName(BlockScope::kSegment), "segment");
  EXPECT_EQ(BlockScopeName(BlockScope::kUser), "user");
}

TEST(SegmenterTest, AssignmentIsStable) {
  Segmenter seg(10);
  for (uint64_t user = 0; user < 100; ++user) {
    EXPECT_EQ(seg.SegmentFor(user), seg.SegmentFor(user));
  }
}

TEST(SegmenterTest, AssignmentSpreadsUsers) {
  Segmenter seg(4);
  std::map<std::string, int> counts;
  for (uint64_t user = 0; user < 4000; ++user) counts[seg.SegmentFor(user)]++;
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [id, c] : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(SegmenterTest, SingleSegmentIsAnonymous) {
  Segmenter seg(1);
  EXPECT_EQ(seg.SegmentFor(1), seg.SegmentFor(999));
  EXPECT_EQ(seg.IdentityBits(), 0.0);
}

TEST(SegmenterTest, IdentityBitsGrowWithSegments) {
  EXPECT_DOUBLE_EQ(Segmenter(2).IdentityBits(), 1.0);
  EXPECT_DOUBLE_EQ(Segmenter(1024).IdentityBits(), 10.0);
}

TEST(SegmenterTest, CustomAssignment) {
  Segmenter seg(2, [](uint64_t user) {
    return user % 2 == 0 ? std::string("even") : std::string("odd");
  });
  EXPECT_EQ(seg.SegmentFor(4), "even");
  EXPECT_EQ(seg.SegmentFor(5), "odd");
}

}  // namespace
}  // namespace speedkit::personalization
