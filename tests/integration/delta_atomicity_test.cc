// End-to-end verification of the paper's central coherence claim:
// with the Cache Sketch enabled, no client ever observes a value that was
// overwritten more than Δ + purge-propagation ago — for any Δ — while a
// plain fixed-TTL CDN suffers staleness up to its full TTL.
#include <gtest/gtest.h>

#include "core/stack.h"
#include "core/traffic.h"

namespace speedkit::core {
namespace {

workload::CatalogConfig SmallCatalog() {
  workload::CatalogConfig config;
  config.num_products = 200;
  config.num_categories = 10;
  return config;
}

struct RunOutcome {
  coherence::StalenessReport staleness;
  uint64_t page_views = 0;
};

RunOutcome RunWorkload(SystemVariant variant, Duration delta,
                       Duration fixed_ttl) {
  StackConfig config;
  config.variant = variant;
  config.coherence.delta = delta;
  config.ttl_mode = TtlMode::kFixed;  // make the staleness bound exact
  config.fixed_ttl = fixed_ttl;
  config.seed = 1234;
  SpeedKitStack stack(config);
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    EXPECT_TRUE(stack.origin().RegisterQuery(catalog.CategoryQuery(c)).ok());
  }
  TrafficConfig traffic;
  traffic.num_clients = 15;
  traffic.duration = Duration::Minutes(10);
  traffic.writes_per_sec = 3.0;  // aggressive: hot objects churn
  traffic.write_skew = 0.9;
  TrafficSimulation sim(&stack, &catalog, traffic);
  TrafficResult result = sim.Run();
  return RunOutcome{stack.staleness().report(), result.page_views};
}

// Δ-atomicity sweep: the observed max staleness must stay within
// Δ + purge propagation (we allow 2s of slack for purge fan-out jitter).
class DeltaAtomicityProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeltaAtomicityProperty, MaxStalenessBoundedByDelta) {
  Duration delta = Duration::Seconds(GetParam());
  RunOutcome outcome = RunWorkload(SystemVariant::kSpeedKit, delta,
                                   /*fixed_ttl=*/Duration::Seconds(120));
  ASSERT_GT(outcome.page_views, 100u);
  EXPECT_LE(outcome.staleness.max_staleness, delta + Duration::Seconds(2))
      << "delta=" << GetParam()
      << "s, observed=" << outcome.staleness.max_staleness.ToString();
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, DeltaAtomicityProperty,
                         ::testing::Values(5, 15, 30, 60));

TEST(DeltaAtomicityTest, FixedTtlCdnViolatesTightBound) {
  // The baseline with 120s TTLs and no invalidation must show staleness
  // far beyond the 5s bound Speed Kit holds under identical traffic.
  RunOutcome outcome =
      RunWorkload(SystemVariant::kFixedTtlCdn, Duration::Seconds(5),
                  Duration::Seconds(120));
  EXPECT_GT(outcome.staleness.max_staleness, Duration::Seconds(10));
  EXPECT_GT(outcome.staleness.stale_reads, 0u);
}

TEST(DeltaAtomicityTest, SpeedKitHasFarFewerStaleReadsThanFixedTtl) {
  RunOutcome sk = RunWorkload(SystemVariant::kSpeedKit, Duration::Seconds(30),
                              Duration::Seconds(120));
  RunOutcome cdn =
      RunWorkload(SystemVariant::kFixedTtlCdn, Duration::Seconds(30),
                  Duration::Seconds(120));
  EXPECT_LT(sk.staleness.StaleFraction(), cdn.staleness.StaleFraction());
}

}  // namespace
}  // namespace speedkit::core
