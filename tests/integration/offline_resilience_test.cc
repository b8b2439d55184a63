// Field-experience claim: Speed Kit keeps previously-visited pages usable
// through origin outages (offline mode), where a vanilla site hard-fails.
#include <gtest/gtest.h>

#include "core/page_load.h"
#include "core/stack.h"

namespace speedkit::core {
namespace {

class OfflineResilienceTest : public ::testing::Test {
 protected:
  OfflineResilienceTest()
      : stack_(StackConfig{}), catalog_(CatalogCfg(), Pcg32(1)) {
    catalog_.Populate(&stack_.store(), stack_.clock().Now());
    for (int c = 0; c < catalog_.num_categories(); ++c) {
      EXPECT_TRUE(
          stack_.origin().RegisterQuery(catalog_.CategoryQuery(c)).ok());
    }
  }

  static workload::CatalogConfig CatalogCfg() {
    workload::CatalogConfig config;
    config.num_products = 50;
    return config;
  }

  SpeedKitStack stack_;
  workload::Catalog catalog_;
};

TEST_F(OfflineResilienceTest, VisitedPagesSurviveOutage) {
  auto client = stack_.MakeClient(1);
  PageLoader loader;
  PageSpec page = MakeProductPage(catalog_, 3, 4, 2);
  PageLoadResult warmup = loader.Load(*client, page);
  ASSERT_EQ(warmup.errors, 0);

  // TTLs expire, then the origin goes down.
  stack_.Advance(Duration::Minutes(90));
  stack_.origin().set_available(false);

  PageLoadResult offline = loader.Load(*client, page);
  EXPECT_EQ(offline.errors, 0);
  EXPECT_EQ(offline.served_from_cache, offline.resources);
}

TEST_F(OfflineResilienceTest, UnvisitedPagesStillFailDuringOutage) {
  auto client = stack_.MakeClient(1);
  stack_.origin().set_available(false);
  PageLoader loader;
  PageLoadResult r = loader.Load(*client, MakeProductPage(catalog_, 3, 4, 2));
  EXPECT_GT(r.errors, 0);
}

TEST_F(OfflineResilienceTest, VanillaClientFailsWhereSpeedKitServes) {
  proxy::ProxyConfig vanilla = stack_.DefaultProxyConfig();
  vanilla.enabled = false;
  auto vanilla_client = stack_.MakeClient(vanilla, 2);
  auto sk_client = stack_.MakeClient(3);

  std::string url = catalog_.ProductUrl(7);
  vanilla_client->Fetch(url);
  sk_client->Fetch(url);

  stack_.Advance(Duration::Minutes(90));  // both browser copies stale
  stack_.origin().set_available(false);

  proxy::FetchResult vanilla_r = vanilla_client->Fetch(url);
  proxy::FetchResult sk_r = sk_client->Fetch(url);
  EXPECT_EQ(vanilla_r.response.status_code, 503);
  EXPECT_TRUE(sk_r.response.ok());
  EXPECT_EQ(sk_r.source, proxy::ServedFrom::kOfflineCache);
}

TEST_F(OfflineResilienceTest, RecoveryResumesNormalOperation) {
  auto client = stack_.MakeClient(1);
  std::string url = catalog_.ProductUrl(3);
  client->Fetch(url);
  stack_.origin().set_available(false);
  stack_.Advance(Duration::Minutes(90));
  client->Fetch(url);  // offline serve
  stack_.origin().set_available(true);
  stack_.Advance(Duration::Seconds(1));
  proxy::FetchResult r = client->Fetch(url);
  EXPECT_TRUE(r.response.ok());
  EXPECT_NE(r.source, proxy::ServedFrom::kOfflineCache);
}

TEST_F(OfflineResilienceTest, WritesDuringOutageAreSeenAfterRecovery) {
  auto client = stack_.MakeClient(1);
  std::string url = catalog_.ProductUrl(3);
  proxy::FetchResult first = client->Fetch(url);
  uint64_t v1 = first.response.object_version;

  stack_.origin().set_available(false);
  Pcg32 rng(5);
  stack_.store().Update(catalog_.ProductId(3),
                        catalog_.PriceUpdate(3, rng), stack_.clock().Now());
  proxy::FetchResult offline = client->Fetch(url);
  // Offline mode knowingly serves the old version...
  EXPECT_EQ(offline.response.object_version, v1);

  stack_.origin().set_available(true);
  stack_.Advance(stack_.config().coherence.delta + Duration::Seconds(1));
  proxy::FetchResult recovered = client->Fetch(url);
  // ...but after recovery the sketch forces revalidation to the new one.
  EXPECT_GT(recovered.response.object_version, v1);
}

}  // namespace
}  // namespace speedkit::core
