// Unit coverage for the pluggable coherence tier's building blocks: mode
// parsing, typed config validation, serializable read-vector validation,
// and the staleness tracker's snapshot-consistency check (the E18 anomaly
// audit). Which stack and client keep a sketch is covered in
// tests/core/stack_test.cc.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/protocol.h"
#include "coherence/staleness.h"

namespace speedkit::coherence {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

CoherenceConfig SmallConfig(CoherenceMode mode) {
  CoherenceConfig config;
  config.mode = mode;
  config.delta = Duration::Seconds(10);
  return config;
}

TEST(CoherenceModeTest, NamesRoundTripThroughParse) {
  for (CoherenceMode mode :
       {CoherenceMode::kDeltaAtomic, CoherenceMode::kSerializable,
        CoherenceMode::kFixedTtl}) {
    CoherenceMode parsed;
    ASSERT_TRUE(ParseCoherenceMode(CoherenceModeName(mode), &parsed).ok());
    EXPECT_EQ(parsed, mode);
  }
}

TEST(CoherenceModeTest, UnknownNameIsRealErrorListingValidSet) {
  CoherenceMode mode = CoherenceMode::kSerializable;
  Status s = ParseCoherenceMode("eventual", &mode);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("delta_atomic"), std::string::npos);
  // A failed parse must not have written the output.
  EXPECT_EQ(mode, CoherenceMode::kSerializable);
}

TEST(CoherenceConfigTest, DefaultsValidateForEveryModeAndVariantKind) {
  for (CoherenceMode mode :
       {CoherenceMode::kDeltaAtomic, CoherenceMode::kSerializable,
        CoherenceMode::kFixedTtl}) {
    CoherenceConfig config;
    config.mode = mode;
    EXPECT_TRUE(config.Validate().ok());
  }
}

TEST(CoherenceConfigTest, RejectsOutOfRangeKnobs) {
  CoherenceConfig config;
  config.delta = Duration::Zero();
  EXPECT_FALSE(config.Validate().ok());
  config = CoherenceConfig();
  config.max_txn_retries = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(SerializableProtocolTest, StaleReadIndexesFlagsHeadMismatchesOnly) {
  CoherenceProtocol protocol(SmallConfig(CoherenceMode::kSerializable));
  protocol.OnVersion("a", 1, At(0));
  protocol.OnVersion("a", 2, At(1));
  protocol.OnVersion("b", 7, At(2));

  // All heads match: certifiable.
  EXPECT_TRUE(protocol.StaleReadIndexes({{"a", 2}, {"b", 7}}).empty());
  // A read behind the head is flagged by its index.
  std::vector<size_t> stale =
      protocol.StaleReadIndexes({{"a", 1}, {"b", 7}, {"a", 2}});
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 0u);
  // Keys the authority never saw written cannot mismatch; version-0 reads
  // of written keys predate every write and always mismatch.
  EXPECT_TRUE(protocol.StaleReadIndexes({{"never-written", 3}}).empty());
  stale = protocol.StaleReadIndexes({{"b", 0}});
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 0u);
}

TEST(CheckSnapshotTest, OverlappingValidityIntervalsAreConsistent) {
  StalenessTracker tracker;
  tracker.RecordWrite("a", 1, At(0));
  tracker.RecordWrite("a", 2, At(10));
  tracker.RecordWrite("b", 1, At(5));

  // a@1 valid [0, 10); b@1 valid [5, inf): instant 5 witnesses both.
  SnapshotCheck check = tracker.CheckSnapshot({{"a", 1}, {"b", 1}});
  EXPECT_TRUE(check.consistent);
  EXPECT_FALSE(check.clamped);
  // Head reads never die: always consistent with each other.
  check = tracker.CheckSnapshot({{"a", 2}, {"b", 1}});
  EXPECT_TRUE(check.consistent);
  // Unwritten keys constrain nothing.
  check = tracker.CheckSnapshot({{"a", 1}, {"ghost", 4}});
  EXPECT_TRUE(check.consistent);
  // The empty set is trivially a snapshot.
  EXPECT_TRUE(tracker.CheckSnapshot({}).consistent);
}

TEST(CheckSnapshotTest, DisjointIntervalsAreAnAnomaly) {
  StalenessTracker tracker;
  tracker.RecordWrite("a", 1, At(0));
  tracker.RecordWrite("a", 2, At(10));
  tracker.RecordWrite("b", 1, At(0));
  tracker.RecordWrite("b", 2, At(10));

  // a@1 died at 10 exactly when b@2 was born: no common instant (the
  // interval is half-open — the txn cannot have run at both "before 10"
  // and "at/after 10").
  SnapshotCheck check = tracker.CheckSnapshot({{"a", 1}, {"b", 2}});
  EXPECT_FALSE(check.consistent);
  EXPECT_FALSE(check.clamped);
  // Strictly disjoint: same verdict.
  tracker.RecordWrite("c", 1, At(20));
  check = tracker.CheckSnapshot({{"a", 1}, {"c", 1}});
  EXPECT_FALSE(check.consistent);
}

TEST(CheckSnapshotTest, RingOverflowClampsTowardConsistent) {
  // A 1-slot ring forgets all but the newest write; missing bounds must
  // be taken as infinitely generous (flagged, never an invented anomaly).
  StalenessTracker tracker(/*ring_capacity=*/1);
  tracker.RecordWrite("a", 1, At(0));
  tracker.RecordWrite("a", 2, At(10));  // a@1's true death
  tracker.RecordWrite("a", 3, At(20));  // only this write stays dated
  tracker.RecordWrite("b", 1, At(15));

  // Truth: a@1 died at 10, b@1 was born at 15 — a genuine anomaly. The
  // ring only remembers a's v3@20, so a@1's death clamps out to 20 and
  // the check errs toward "consistent", flagging the clamp so E18's
  // anomaly counts are never silently weakened, only under-counted.
  SnapshotCheck check = tracker.CheckSnapshot({{"a", 1}, {"b", 1}});
  EXPECT_TRUE(check.consistent);
  EXPECT_TRUE(check.clamped);
}

}  // namespace
}  // namespace speedkit::coherence
