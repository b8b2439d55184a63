// End-to-end coherence for ordered, limited query results: a cached
// "cheapest 3" listing must reflect top-k displacement within Δ, through
// the full stack (origin materialization -> pipeline -> sketch -> client
// proxy), while writes that don't touch the visible slice cost nothing.
#include <gtest/gtest.h>

#include "core/stack.h"
#include "invalidation/pipeline.h"

namespace speedkit::core {
namespace {

class SortedQueryCoherenceTest : public ::testing::Test {
 protected:
  SortedQueryCoherenceTest() : stack_(MakeConfig()) {
    for (int i = 0; i < 6; ++i) {
      stack_.store().Put("p" + std::to_string(i),
                         {{"category", static_cast<int64_t>(1)},
                          {"price", 10.0 * (i + 1)}},
                         stack_.clock().Now());
    }
    invalidation::Query q;
    q.id = "cheapest3";
    q.conditions.push_back(
        {"category", invalidation::Op::kEq, static_cast<int64_t>(1)});
    q.order_by = "price";
    q.limit = 3;
    EXPECT_TRUE(stack_.origin().RegisterQuery(q).ok());
    stack_.Advance(Duration::Seconds(5));
    client_ = stack_.MakeClient(1);
  }

  static StackConfig MakeConfig() {
    StackConfig config;
    config.coherence.delta = Duration::Seconds(10);
    config.ttl_mode = TtlMode::kFixed;
    config.fixed_ttl = Duration::Seconds(300);
    return config;
  }

  std::string QueryUrl() { return invalidation::QueryCacheKey("cheapest3"); }

  SpeedKitStack stack_;
  std::unique_ptr<proxy::ClientProxy> client_;
};

TEST_F(SortedQueryCoherenceTest, DisplacementVisibleWithinDelta) {
  proxy::FetchResult first = client_->Fetch(QueryUrl());
  ASSERT_TRUE(first.response.ok());
  EXPECT_NE(first.response.body.ToString().find("\"id\":\"p0\""), std::string::npos);
  EXPECT_EQ(first.response.body.ToString().find("\"id\":\"p5\""), std::string::npos);

  // p5 (60 -> 1) becomes the cheapest: the cached listing is now stale.
  stack_.store().Update("p5", {{"price", 1.0}}, stack_.clock().Now());
  stack_.Advance(stack_.config().coherence.delta + Duration::Seconds(1));

  proxy::FetchResult second = client_->Fetch(QueryUrl());
  ASSERT_TRUE(second.response.ok());
  EXPECT_TRUE(second.sketch_bypass);
  EXPECT_GT(second.response.object_version, first.response.object_version);
  EXPECT_NE(second.response.body.ToString().find("\"id\":\"p5\""), std::string::npos);
  // p2 (rank 3 before) fell out of the slice.
  EXPECT_EQ(second.response.body.ToString().find("\"id\":\"p2\""), std::string::npos);
}

TEST_F(SortedQueryCoherenceTest, OutOfSliceWriteDoesNotChurnResult) {
  proxy::FetchResult first = client_->Fetch(QueryUrl());
  // p5 (rank 6) gets cheaper but stays far outside the top 3: the visible
  // slice is untouched, so the result version must not move.
  stack_.store().Update("p5", {{"price", 55.0}}, stack_.clock().Now());
  stack_.Advance(stack_.config().coherence.delta + Duration::Seconds(1));

  proxy::FetchResult second = client_->Fetch(QueryUrl());
  ASSERT_TRUE(second.response.ok());
  EXPECT_EQ(second.response.object_version, first.response.object_version);
  // The matcher is conservative (it cannot know the boundary), so the key
  // may be flagged and revalidated — but that costs a 304, not a body.
  if (second.sketch_bypass) {
    EXPECT_TRUE(second.revalidated);
  }
}

TEST_F(SortedQueryCoherenceTest, SliceStalenessIsDeltaBounded) {
  client_->Fetch(QueryUrl());
  stack_.store().Update("p5", {{"price", 1.0}}, stack_.clock().Now());

  // Poll the listing repeatedly; record staleness of every read.
  Duration max_staleness = Duration::Zero();
  for (int i = 0; i < 30; ++i) {
    stack_.Advance(Duration::Seconds(1));
    proxy::FetchResult r = client_->Fetch(QueryUrl());
    if (r.response.ok() && r.response.object_version > 0) {
      Duration staleness = stack_.staleness().RecordRead(
          QueryUrl(), r.response.object_version, stack_.clock().Now());
      max_staleness = std::max(max_staleness, staleness);
    }
  }
  EXPECT_LE(max_staleness, stack_.config().coherence.delta + Duration::Seconds(2));
}

}  // namespace
}  // namespace speedkit::core
