#include "core/replay.h"

#include <gtest/gtest.h>

#include "core/bounce.h"

namespace speedkit::core {
namespace {

workload::CatalogConfig SmallCatalog() {
  workload::CatalogConfig config;
  config.num_products = 100;
  config.num_categories = 5;
  return config;
}

std::unique_ptr<SpeedKitStack> MakeStack(SystemVariant variant) {
  StackConfig config;
  config.variant = variant;
  config.seed = 11;
  auto stack = std::make_unique<SpeedKitStack>(config);
  return stack;
}

void Prepare(SpeedKitStack& stack, const workload::Catalog& catalog) {
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    (void)stack.origin().RegisterQuery(catalog.CategoryQuery(c));
  }
  stack.Advance(Duration::Seconds(5));
}

TEST(ReplayTest, SynthesizedTraceHasFetchesAndWrites) {
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  workload::Trace trace =
      SynthesizeTrace(catalog, 5, Duration::Minutes(5), 1.0, 42);
  ASSERT_GT(trace.size(), 50u);
  size_t fetches = 0;
  size_t writes = 0;
  SimTime prev;
  for (const auto& ev : trace.events()) {
    EXPECT_GE(ev.at, prev);  // sorted
    prev = ev.at;
    if (ev.kind == workload::TraceEvent::Kind::kFetch) {
      ++fetches;
    } else {
      ++writes;
    }
  }
  EXPECT_GT(fetches, 20u);
  EXPECT_NEAR(static_cast<double>(writes), 300.0, 90.0);  // 1/s for 5 min
}

TEST(ReplayTest, SynthesisIsDeterministic) {
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  workload::Trace a = SynthesizeTrace(catalog, 5, Duration::Minutes(2), 1.0, 7);
  workload::Trace b = SynthesizeTrace(catalog, 5, Duration::Minutes(2), 1.0, 7);
  EXPECT_EQ(a.Serialize(), b.Serialize());
  workload::Trace c = SynthesizeTrace(catalog, 5, Duration::Minutes(2), 1.0, 8);
  EXPECT_NE(a.Serialize(), c.Serialize());
}

TEST(ReplayTest, ReplayIsDeterministicAcrossStacks) {
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  workload::Trace trace =
      SynthesizeTrace(catalog, 5, Duration::Minutes(5), 1.0, 42);
  auto run = [&]() {
    auto stack = MakeStack(SystemVariant::kSpeedKit);
    Prepare(*stack, catalog);
    TraceReplayer replayer(stack.get());
    return replayer.Replay(trace).Fingerprint();
  };
  EXPECT_EQ(run(), run());
}

TEST(ReplayTest, SerializedTraceReplaysIdentically) {
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  workload::Trace trace =
      SynthesizeTrace(catalog, 3, Duration::Minutes(3), 1.0, 42);
  auto restored = workload::Trace::Deserialize(trace.Serialize());
  ASSERT_TRUE(restored.ok());

  auto run = [&](const workload::Trace& t) {
    auto stack = MakeStack(SystemVariant::kSpeedKit);
    Prepare(*stack, catalog);
    TraceReplayer replayer(stack.get());
    return replayer.Replay(t).Fingerprint();
  };
  EXPECT_EQ(run(trace), run(*restored));
}

TEST(ReplayTest, SameTraceDifferentVariantsDiverge) {
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  workload::Trace trace =
      SynthesizeTrace(catalog, 5, Duration::Minutes(5), 1.0, 42);

  auto run = [&](SystemVariant variant) {
    auto stack = MakeStack(variant);
    Prepare(*stack, catalog);
    TraceReplayer replayer(stack.get());
    return replayer.Replay(trace);
  };
  ReplayResult sk = run(SystemVariant::kSpeedKit);
  ReplayResult none = run(SystemVariant::kNoCaching);
  EXPECT_EQ(sk.fetches, none.fetches);  // identical request stream
  EXPECT_EQ(sk.writes, none.writes);
  EXPECT_GT(sk.proxies.browser_hits, none.proxies.browser_hits);
  EXPECT_LT(sk.latency_us.Mean(), none.latency_us.Mean());
}

TEST(ReplayTest, ErrorsCountedForUnknownUrls) {
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  auto stack = MakeStack(SystemVariant::kSpeedKit);
  Prepare(*stack, catalog);
  workload::Trace trace;
  trace.AddFetch(stack->clock().Now() + Duration::Seconds(1), 1,
                 "https://shop.example.com/api/records/ghost");
  TraceReplayer replayer(stack.get());
  ReplayResult result = replayer.Replay(trace);
  EXPECT_EQ(result.fetches, 1u);
  EXPECT_EQ(result.errors, 1u);
}

TEST(ReplayTest, MalformedUrlInTraceCountsAsErrorWithoutCrashing) {
  workload::Catalog catalog(SmallCatalog(), Pcg32(1));
  auto stack = MakeStack(SystemVariant::kSpeedKit);
  Prepare(*stack, catalog);
  workload::Trace trace;
  trace.AddFetch(stack->clock().Now() + Duration::Seconds(1), 1, "not a url");
  trace.AddFetch(stack->clock().Now() + Duration::Seconds(2), 1,
                 catalog.ProductUrl(0));
  TraceReplayer replayer(stack.get());
  ReplayResult result = replayer.Replay(trace);
  EXPECT_EQ(result.fetches, 2u);
  // The bad URL lands in the error count (both the proxy's and the
  // replayer's own staleness-tracking guard) and the good one still works.
  EXPECT_GE(result.errors, 1u);
  EXPECT_GE(result.proxies.browser_hits + result.proxies.edge_hits +
                result.proxies.origin_fetches,
            1u);
}

TEST(BounceModelTest, CurveShape) {
  BounceModel model(Duration::Seconds(3), 1.4);
  // Half the users bounce at the tolerance point.
  EXPECT_NEAR(model.BounceProbability(Duration::Seconds(3)), 0.5, 1e-9);
  // Fast pages rarely bounce; slow pages almost always.
  EXPECT_LT(model.BounceProbability(Duration::Millis(500)), 0.05);
  EXPECT_GT(model.BounceProbability(Duration::Seconds(8)), 0.97);
  // Monotone.
  double prev = 0;
  for (int ms = 0; ms <= 10000; ms += 250) {
    double p = model.BounceProbability(Duration::Millis(ms));
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(BounceModelTest, ToleranceShiftsCurve) {
  BounceModel strict(Duration::Seconds(1));
  BounceModel lax(Duration::Seconds(5));
  Duration load = Duration::Seconds(2);
  EXPECT_GT(strict.BounceProbability(load), lax.BounceProbability(load));
}

}  // namespace
}  // namespace speedkit::core
