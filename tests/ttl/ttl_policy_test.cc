#include "ttl/ttl_policy.h"

#include <gtest/gtest.h>

#include <cmath>

namespace speedkit::ttl {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

TEST(FixedTtlPolicyTest, AlwaysReturnsConfiguredTtl) {
  FixedTtlPolicy policy(Duration::Seconds(60));
  EXPECT_EQ(policy.TtlFor("a", At(0)), Duration::Seconds(60));
  policy.ObserveWrite("a", At(1));  // ignored
  EXPECT_EQ(policy.TtlFor("a", At(2)), Duration::Seconds(60));
}

TEST(EstimatedTtlPolicyTest, ColdStartUsesDefault) {
  EstimatedTtlPolicy policy;
  EXPECT_EQ(policy.TtlFor("never-written", At(0)), Duration::Seconds(600));
  EXPECT_EQ(policy.stats().cold_starts, 1u);
}

TEST(EstimatedTtlPolicyTest, OneWriteIsStillColdStart) {
  EstimatedTtlPolicy policy;
  policy.ObserveWrite("k", At(0));
  EXPECT_EQ(policy.TtlFor("k", At(1)), EstimatedTtlPolicy::kColdStartTtl);
}

TEST(EstimatedTtlPolicyTest, TtlTracksInterWriteGap) {
  // Budget 0.5: factor = -ln(0.5) ~ 0.693.
  EstimatedTtlPolicy policy(Duration::Seconds(100000));
  // Steady 100 s gaps.
  for (int i = 0; i <= 20; ++i) policy.ObserveWrite("k", At(100.0 * i));
  Duration ttl = policy.TtlFor("k", At(2100));
  double expected = -std::log(0.5) * 100.0;
  EXPECT_NEAR(ttl.seconds(), expected, 1.0);
  EXPECT_NEAR(policy.EstimatedGap("k").seconds(), 100.0, 0.5);
}

TEST(EstimatedTtlPolicyTest, ClampsToBounds) {
  EstimatedTtlPolicy policy(Duration::Seconds(60));
  // Very fast writes: raw estimate below the 5 s floor.
  for (int i = 0; i <= 10; ++i) policy.ObserveWrite("fast", At(0.1 * i));
  EXPECT_EQ(policy.TtlFor("fast", At(2)), Duration::Seconds(5));
  // Very slow writes: raw estimate above max.
  for (int i = 0; i <= 3; ++i) policy.ObserveWrite("slow", At(100000.0 * i));
  EXPECT_EQ(policy.TtlFor("slow", At(400000)), Duration::Seconds(60));
}

TEST(EstimatedTtlPolicyTest, EwmaAdaptsToRateChange) {
  EstimatedTtlPolicy policy(Duration::Seconds(100000));
  double t = 0;
  for (int i = 0; i < 10; ++i) {
    policy.ObserveWrite("k", At(t));
    t += 1000.0;
  }
  Duration slow_ttl = policy.TtlFor("k", At(t));
  // Rate jumps 100x.
  for (int i = 0; i < 20; ++i) {
    policy.ObserveWrite("k", At(t));
    t += 10.0;
  }
  Duration fast_ttl = policy.TtlFor("k", At(t));
  EXPECT_LT(fast_ttl.seconds(), slow_ttl.seconds() / 10.0);
}

TEST(EstimatedTtlPolicyTest, KeysAreIndependent) {
  EstimatedTtlPolicy policy;
  for (int i = 0; i <= 5; ++i) policy.ObserveWrite("hot", At(10.0 * i));
  for (int i = 0; i <= 5; ++i) policy.ObserveWrite("cold", At(10000.0 * i));
  EXPECT_LT(policy.TtlFor("hot", At(60000)).micros(),
            policy.TtlFor("cold", At(60000)).micros());
  EXPECT_EQ(policy.stats().tracked_keys, 2u);
}

TEST(EstimatedTtlPolicyTest, SimultaneousWritesDontPoisonEwma) {
  EstimatedTtlPolicy policy;
  policy.ObserveWrite("k", At(10));
  policy.ObserveWrite("k", At(10));  // zero gap must be ignored
  policy.ObserveWrite("k", At(110));
  EXPECT_NEAR(policy.EstimatedGap("k").seconds(), 100.0, 0.5);
}

}  // namespace
}  // namespace speedkit::ttl
