#include "core/page_load.h"

#include <gtest/gtest.h>

#include "core/stack.h"

namespace speedkit::core {
namespace {

class PageLoadTest : public ::testing::Test {
 protected:
  PageLoadTest() : stack_(MakeConfig()), catalog_(CatalogConfig(), Pcg32(1)) {
    catalog_.Populate(&stack_.store(), stack_.clock().Now());
    for (int c = 0; c < catalog_.num_categories(); ++c) {
      EXPECT_TRUE(
          stack_.origin().RegisterQuery(catalog_.CategoryQuery(c)).ok());
    }
    // Population writes sit in the sketch until their purge horizon; let
    // the system quiesce so load-time arithmetic is clean.
    stack_.Advance(Duration::Seconds(5));
  }

  // Per-request service-worker interception cost in the default config.
  Duration Overhead() { return stack_.DefaultProxyConfig().device_overhead; }

  static StackConfig MakeConfig() {
    StackConfig config;
    // Deterministic latencies so load-time arithmetic is checkable.
    config.network.client_edge = sim::LinkSpec{Duration::Millis(20), 0.0, 0.0};
    config.network.client_origin =
        sim::LinkSpec{Duration::Millis(100), 0.0, 0.0};
    config.network.edge_origin = sim::LinkSpec{Duration::Millis(80), 0.0, 0.0};
    return config;
  }

  static workload::CatalogConfig CatalogConfig() {
    workload::CatalogConfig config;
    config.num_products = 100;
    return config;
  }

  SpeedKitStack stack_;
  workload::Catalog catalog_;
};

TEST_F(PageLoadTest, ColdLoadSlowerThanWarmLoad) {
  auto client = stack_.MakeClient(1);
  PageLoader loader;
  PageSpec page = MakeProductPage(catalog_, 5, 8, 4);
  PageLoadResult cold = loader.Load(*client, page);
  PageLoadResult warm = loader.Load(*client, page);
  EXPECT_GT(cold.load_time, warm.load_time);
  EXPECT_EQ(warm.served_from_cache, warm.resources);
  EXPECT_EQ(cold.errors, 0);
}

TEST_F(PageLoadTest, TtfbIsShellLatency) {
  auto client = stack_.MakeClient(1);
  PageLoader loader;
  PageSpec page = MakeHomePage(4);
  PageLoadResult cold = loader.Load(*client, page);
  // Cold shell: edge miss path (20 + 80) + shell render time + overhead;
  // the sketch refresh (20 ms) overlaps the in-flight request.
  EXPECT_EQ(cold.ttfb,
            Duration::Millis(100) + origin::kShellRenderTime + Overhead());
  EXPECT_GT(cold.load_time, cold.ttfb);
}

TEST_F(PageLoadTest, ParallelismCapsConcurrentDownloads) {
  auto client = stack_.MakeClient(1);
  // 12 identical sub-resources over 6 connections: two waves.
  PageSpec page = MakeHomePage(12);
  PageLoader loader(6);
  PageLoadResult cold = loader.Load(*client, page);
  // Each cold sub-resource costs 100ms + asset render + overhead (edge
  // miss; sketch fresh after shell): 12 resources / 6 connections = 2
  // waves.
  EXPECT_EQ(cold.load_time - cold.ttfb,
            (Duration::Millis(100) + origin::kAssetRenderTime + Overhead()) *
                2.0);
}

TEST_F(PageLoadTest, SingleConnectionSerializes) {
  auto client = stack_.MakeClient(1);
  PageSpec page = MakeHomePage(4);
  PageLoader loader(1);
  PageLoadResult cold = loader.Load(*client, page);
  EXPECT_EQ(cold.load_time - cold.ttfb,
            (Duration::Millis(100) + origin::kAssetRenderTime + Overhead()) *
                4.0);
}

TEST_F(PageLoadTest, ProductPageCarriesApiVersion) {
  auto client = stack_.MakeClient(1);
  PageLoader loader;
  PageSpec page = MakeProductPage(catalog_, 7, 2, 1);
  PageLoadResult r = loader.Load(*client, page);
  EXPECT_EQ(r.object_version, 1u);  // freshly populated catalog
}

TEST_F(PageLoadTest, PersonalizedBlocksAreCountedAsResources) {
  auto client = stack_.MakeClient(1);
  personalization::PageTemplate tpl;
  tpl.url = "https://shop.example.com/pages/home";
  tpl.blocks = {
      {"banner", personalization::BlockScope::kStatic},
      {"recs", personalization::BlockScope::kSegment},
  };
  personalization::Segmenter segmenter(4);
  PageSpec page = MakeHomePage(2);
  page.page_template = &tpl;
  page.segmenter = &segmenter;
  PageLoader loader;
  PageLoadResult r = loader.Load(*client, page);
  EXPECT_EQ(r.resources, 1 + 2 + 2);  // shell + assets + blocks
}

TEST_F(PageLoadTest, PageBuildersProduceDistinctResources) {
  PageSpec home = MakeHomePage(3);
  PageSpec cat = MakeCategoryPage(catalog_, 2, 3, 5);
  PageSpec product = MakeProductPage(catalog_, 9, 3, 2);
  EXPECT_EQ(home.resource_urls.size(), 3u);
  EXPECT_EQ(cat.resource_urls.size(), 3u + 1 + 5);
  EXPECT_EQ(product.resource_urls.size(), 3u + 2 + 2);
  EXPECT_NE(home.shell_url, cat.shell_url);
  // Category page references the query result URL.
  bool has_query = false;
  for (const auto& url : cat.resource_urls) {
    if (url.find("/api/queries/") != std::string::npos) has_query = true;
  }
  EXPECT_TRUE(has_query);
}

}  // namespace
}  // namespace speedkit::core
