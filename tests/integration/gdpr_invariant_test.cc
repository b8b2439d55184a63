// End-to-end verification of the paper's compliance claim: with the
// GDPR-mode client proxy, no personal data ever crosses the device
// boundary — across full personalized page loads, many users, and every
// block scope — while the legacy personalization baseline demonstrably
// leaks identity on every user-scoped fetch.
#include <gtest/gtest.h>

#include "core/page_load.h"
#include "core/stack.h"

namespace speedkit::core {
namespace {

struct UserSetup {
  std::unique_ptr<personalization::PiiVault> vault;
  std::unique_ptr<personalization::BoundaryAuditor> auditor;
  std::unique_ptr<proxy::ClientProxy> client;
};

UserSetup MakeUser(SpeedKitStack& stack, uint64_t user_id, bool gdpr_mode) {
  UserSetup setup;
  setup.vault = std::make_unique<personalization::PiiVault>(user_id);
  setup.vault->Put("name", "User Number " + std::to_string(user_id));
  setup.vault->Put("email",
                   "user" + std::to_string(user_id) + "@example.org");
  setup.vault->Put("cart", std::to_string(user_id % 5) + " items pending");
  setup.auditor = std::make_unique<personalization::BoundaryAuditor>();
  setup.auditor->RegisterVault(*setup.vault);
  proxy::ProxyConfig pc = stack.DefaultProxyConfig();
  pc.gdpr_mode = gdpr_mode;
  setup.client = stack.MakeClient(pc, user_id, setup.auditor.get());
  setup.client->AttachVault(setup.vault.get());
  return setup;
}

personalization::PageTemplate PersonalizedPage() {
  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/home";
  page.blocks = {
      {"hero", personalization::BlockScope::kStatic},
      {"recs", personalization::BlockScope::kSegment},
      {"greeting", personalization::BlockScope::kUser},
      {"cart-preview", personalization::BlockScope::kUser},
  };
  return page;
}

TEST(GdprInvariantTest, NoPiiEgressAcrossManyUsersAndPages) {
  StackConfig config;
  SpeedKitStack stack(config);
  workload::CatalogConfig cconfig;
  cconfig.num_products = 100;
  workload::Catalog catalog(cconfig, Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    ASSERT_TRUE(stack.origin().RegisterQuery(catalog.CategoryQuery(c)).ok());
  }

  personalization::PageTemplate tpl = PersonalizedPage();
  personalization::Segmenter segmenter(16);
  PageLoader loader;

  // User ids chosen adversarially: numerically small and large, so their
  // decimal forms have every chance to collide with URL content.
  for (uint64_t user_id : {101ull, 777ull, 31337ull, 999999999ull}) {
    UserSetup user = MakeUser(stack, user_id, /*gdpr_mode=*/true);
    for (size_t rank : {0u, 5u, 9u}) {
      PageSpec page = MakeProductPage(catalog, rank, 4, 2);
      page.page_template = &tpl;
      page.segmenter = &segmenter;
      PageLoadResult r = loader.Load(*user.client, page);
      EXPECT_EQ(r.errors, 0);
    }
    EXPECT_EQ(user.auditor->violations(), 0u)
        << "user " << user_id << " leaked: "
        << (user.auditor->samples().empty()
                ? ""
                : user.auditor->samples()[0].url);
    EXPECT_GT(user.auditor->inspected(), 0u);
  }
}

TEST(GdprInvariantTest, UserBlocksStillPersonalizedOnDevice) {
  StackConfig config;
  SpeedKitStack stack(config);
  UserSetup user = MakeUser(stack, 4242, /*gdpr_mode=*/true);
  personalization::PageTemplate tpl = PersonalizedPage();
  personalization::Segmenter segmenter(16);
  proxy::BlockResult r =
      user.client->FetchBlock(tpl, tpl.blocks[2], segmenter);
  EXPECT_TRUE(r.rendered_on_device);
  // The personalization really happened: vault data is in the content...
  EXPECT_NE(r.content.find("User Number 4242"), std::string::npos);
  // ...yet nothing crossed the boundary.
  EXPECT_EQ(user.auditor->violations(), 0u);
}

TEST(GdprInvariantTest, LegacyModeLeaksOnEveryUserBlock) {
  StackConfig config;
  SpeedKitStack stack(config);
  UserSetup user = MakeUser(stack, 5555, /*gdpr_mode=*/false);
  personalization::PageTemplate tpl = PersonalizedPage();
  personalization::Segmenter segmenter(16);
  user.client->FetchBlock(tpl, tpl.blocks[2], segmenter);
  user.client->FetchBlock(tpl, tpl.blocks[3], segmenter);
  EXPECT_GE(user.auditor->violations(), 2u);
}

TEST(GdprInvariantTest, SegmentIdsCarryBoundedIdentity) {
  // A 16-segment policy reveals 4 bits; assert the accounting is exposed so
  // deployments can check k-anonymity targets.
  personalization::Segmenter segmenter(16);
  EXPECT_DOUBLE_EQ(segmenter.IdentityBits(), 4.0);
  // And the segment id itself must not contain the user id.
  std::string seg = segmenter.SegmentFor(123456789);
  EXPECT_EQ(seg.find("123456789"), std::string::npos);
}

TEST(GdprInvariantTest, GdprModeCachesTemplatesAcrossUsers) {
  // The GDPR design is not just compliant, it is *fast*: the anonymous
  // template is fetched once and shared; the second user's user-block
  // fetch hits a cache.
  StackConfig config;
  SpeedKitStack stack(config);
  personalization::PageTemplate tpl = PersonalizedPage();
  personalization::Segmenter segmenter(16);

  UserSetup a = MakeUser(stack, 1001, true);
  UserSetup b = MakeUser(stack, 1002, true);
  a.client->FetchBlock(tpl, tpl.blocks[2], segmenter);
  proxy::BlockResult r = b.client->FetchBlock(tpl, tpl.blocks[2], segmenter);
  EXPECT_TRUE(r.source == proxy::ServedFrom::kEdgeCache ||
              r.source == proxy::ServedFrom::kBrowserCache ||
              r.source == proxy::ServedFrom::kOrigin);
  // Same-edge users share the template via the CDN.
  if (stack.cdn().RouteFor(1001) == stack.cdn().RouteFor(1002)) {
    EXPECT_EQ(r.source, proxy::ServedFrom::kEdgeCache);
  }
}

}  // namespace
}  // namespace speedkit::core
