// E5 — Page load time A/B: Speed Kit on vs. off, per customer profile.
//
// Reproduces the paper's headline field result (">1 year of productive use
// in the e-commerce industry"): full page loads — shell, assets, API
// calls, personalized blocks — for three customer profiles, with the
// accelerated arm (service worker + sketch + CDN + estimated TTLs) and the
// vanilla arm (origin + CDN for statics, dynamic content uncacheable)
// driven by identically-seeded session streams. The paper reports ~1.5-3x
// speedups at the percentiles; the shape to reproduce is "Speed Kit wins
// at every percentile, most at the median".
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "core/bounce.h"
#include "core/page_load.h"
#include "core/stack.h"
#include "workload/session.h"
#include "workload/write_process.h"

namespace speedkit {
namespace {

// Each profile describes the page mix AND the customer's pre-Speed-Kit
// infrastructure — the paper's field speedups vary per customer exactly
// because the baselines differ (origin-only shops gain most; sites that
// already run a CDN and tolerate stale HTML gain least).
struct Profile {
  std::string name;
  size_t num_products;
  int shared_assets;
  int product_images;
  double writes_per_sec;
  int user_blocks;
  int segment_blocks;
  bool vanilla_has_cdn;          // does the baseline site run a CDN?
  Duration vanilla_dynamic_ttl;  // baseline TTL on HTML/API (0 = no-cache)
};

const Profile kProfiles[] = {
    // Mid-size shop serving everything from its origin; HTML and API
    // uncacheable (personalized, no coherence).
    {"fashion-shop", 5000, 12, 8, 1.0, 1, 2, false, Duration::Zero()},
    // Large marketplace: CDN in place for statics, but dynamic content is
    // no-cache because prices change constantly.
    {"marketplace", 20000, 24, 4, 6.0, 2, 2, true, Duration::Zero()},
    // Publisher: CDN plus short fixed TTLs on articles (they accept some
    // staleness) — the weakest case for additional acceleration.
    {"publisher", 2000, 15, 2, 0.2, 0, 1, true, Duration::Seconds(120)},
};

struct ArmResult {
  Histogram load_ms;
  Histogram ttfb_ms;
  uint64_t page_views = 0;
  uint64_t origin_requests = 0;
  double cache_share = 0;
  double stale_rate = 0;
  uint64_t pii_violations = 0;
  double bounce_probability_sum = 0;  // expected abandons over page views

  double BounceRate() const {
    return page_views == 0 ? 0.0
                           : bounce_probability_sum /
                                 static_cast<double>(page_views);
  }
};

// Connectivity classes: broadband (defaults) and a mobile/3G-ish profile
// with higher RTTs and ~1.5 Mbit/s downlink — the field conditions where
// the paper's speedups are largest.
sim::NetworkConfig MobileNetwork() {
  sim::NetworkConfig net;
  net.client_edge = sim::LinkSpec{Duration::Millis(60), 0.35, 2.0e5};
  net.client_origin = sim::LinkSpec{Duration::Millis(250), 0.40, 1.5e5};
  net.edge_origin = sim::LinkSpec{Duration::Millis(80), 0.20, 12.0e6};
  return net;
}

ArmResult RunArm(const Profile& profile, bool speed_kit_on, bool mobile) {
  core::StackConfig config;
  config.seed = 77;
  if (mobile) config.network = MobileNetwork();
  if (speed_kit_on) {
    config.variant = core::SystemVariant::kSpeedKit;
  } else {
    // Vanilla site: the profile says whether a CDN exists and how the
    // operator TTLs dynamic content without coherence.
    config.variant = core::SystemVariant::kFixedTtlCdn;
    config.fixed_ttl = profile.vanilla_dynamic_ttl;
  }
  core::SpeedKitStack stack(config);
  proxy::ProxyConfig proxy_config = stack.DefaultProxyConfig();
  if (!speed_kit_on && !profile.vanilla_has_cdn) {
    proxy_config.use_cdn = false;
  }

  workload::CatalogConfig cconfig;
  cconfig.num_products = profile.num_products;
  workload::Catalog catalog(cconfig, Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  for (int c = 0; c < catalog.num_categories(); ++c) {
    stack.origin().RegisterQuery(catalog.CategoryQuery(c));
  }
  stack.Advance(Duration::Seconds(5));

  // Personalized page template per profile.
  personalization::PageTemplate tpl;
  tpl.url = "https://shop.example.com/pages/product";
  for (int i = 0; i < profile.segment_blocks; ++i) {
    tpl.blocks.push_back({"recs-" + std::to_string(i),
                          personalization::BlockScope::kSegment});
  }
  for (int i = 0; i < profile.user_blocks; ++i) {
    tpl.blocks.push_back({"user-" + std::to_string(i),
                          personalization::BlockScope::kUser});
  }
  personalization::Segmenter segmenter(32);

  constexpr size_t kClients = 15;
  // One popularity CDF for the whole fleet; per-generator copies are an
  // O(catalog) duplication that the million-client benches cannot afford.
  workload::ZipfGenerator popularity(
      static_cast<size_t>(catalog.num_products()),
      workload::SessionConfig{}.product_skew);
  std::vector<std::unique_ptr<personalization::PiiVault>> vaults;
  std::vector<std::unique_ptr<personalization::BoundaryAuditor>> auditors;
  std::vector<std::unique_ptr<proxy::ClientProxy>> clients;
  std::vector<workload::SessionGenerator> session_gens;
  for (size_t i = 0; i < kClients; ++i) {
    uint64_t user_id = 100000 + i;
    vaults.push_back(std::make_unique<personalization::PiiVault>(user_id));
    vaults.back()->Put("name", "Visitor " + std::to_string(user_id));
    vaults.back()->Put("cart", std::to_string(i % 4) + " items");
    auditors.push_back(std::make_unique<personalization::BoundaryAuditor>());
    auditors.back()->RegisterVault(*vaults.back());
    clients.push_back(
        stack.MakeClient(proxy_config, user_id, auditors.back().get()));
    clients.back()->AttachVault(vaults.back().get());
    session_gens.emplace_back(&catalog, workload::SessionConfig{}, &popularity,
                              stack.ForkRng(500 + i));
  }

  workload::WriteProcess writes(profile.num_products, profile.writes_per_sec,
                                0.8, stack.ForkRng(42));
  core::PageLoader loader;
  ArmResult result;
  Pcg32 write_rng = stack.ForkRng(43);

  SimTime end = stack.clock().Now() + Duration::Minutes(15);
  SimTime next_write = writes.Next(stack.clock().Now()).at;
  size_t next_write_rank = 0;
  {
    workload::WriteEvent first = writes.Next(stack.clock().Now());
    next_write = first.at;
    next_write_rank = first.object_rank;
  }

  size_t turn = 0;
  while (stack.clock().Now() < end) {
    size_t c = turn++ % kClients;
    std::vector<workload::PageView> session = session_gens[c].NextSession();
    for (const workload::PageView& view : session) {
      // Apply any writes that fall before this page view.
      SimTime at = stack.clock().Now() + view.think_time_before;
      while (next_write <= at) {
        stack.AdvanceTo(next_write);
        stack.store().Update(catalog.ProductId(next_write_rank),
                             catalog.PriceUpdate(next_write_rank, write_rng),
                             stack.clock().Now());
        workload::WriteEvent ev = writes.Next(stack.clock().Now());
        next_write = ev.at;
        next_write_rank = ev.object_rank;
      }
      stack.AdvanceTo(at);
      if (stack.clock().Now() >= end) break;

      core::PageSpec page;
      switch (view.type) {
        case workload::PageType::kHome:
          page = core::MakeHomePage(profile.shared_assets);
          break;
        case workload::PageType::kCategory:
          page = core::MakeCategoryPage(catalog, view.category,
                                        profile.shared_assets, 6);
          break;
        case workload::PageType::kProduct:
          page = core::MakeProductPage(catalog, view.product_rank,
                                       profile.shared_assets,
                                       profile.product_images);
          break;
        case workload::PageType::kCart:
          continue;
      }
      page.page_template = &tpl;
      page.segmenter = &segmenter;
      static const core::BounceModel kBounceModel;
      core::PageLoadResult load = loader.Load(*clients[c], page);
      result.page_views++;
      result.load_ms.Add(static_cast<int64_t>(load.load_time.millis()));
      result.ttfb_ms.Add(static_cast<int64_t>(load.ttfb.millis()));
      result.bounce_probability_sum +=
          kBounceModel.BounceProbability(load.load_time);
      result.cache_share += static_cast<double>(load.served_from_cache) /
                            static_cast<double>(load.resources);
    }
  }
  result.cache_share /= static_cast<double>(std::max<uint64_t>(1, result.page_views));
  result.origin_requests = stack.origin().stats().requests;
  result.stale_rate = stack.staleness().report().StaleFraction();
  for (const auto& auditor : auditors) {
    result.pii_violations += auditor->violations();
  }
  return result;
}

double Speedup(int64_t off, int64_t on) {
  return static_cast<double>(off) / std::max<int64_t>(1, on);
}

void RunProfile(const Profile& profile, bool mobile, bench::JsonValue* rows) {
  const std::string network = mobile ? "mobile" : "broadband";
  ArmResult off = RunArm(profile, /*speed_kit_on=*/false, mobile);
  ArmResult on = RunArm(profile, /*speed_kit_on=*/true, mobile);
  bench::Table arms("customer profile: " + profile.name + " (" + network +
                        "); rows: vanilla, speed_kit",
                    "",
                    {{"p50_ms"},
                     {"p90_ms"},
                     {"p99_ms"},
                     {"ttfb_p50_ms"},
                     {"cache_share", 1, true},
                     {"origin_requests"},
                     {"pii_violations"},
                     {"bounce_rate", 1, true},
                     {"page_views"}});
  auto arm = [&arms](const ArmResult& r) {
    return arms.Add({r.load_ms.P50(), r.load_ms.P90(), r.load_ms.P99(),
                     r.ttfb_ms.P50(), r.cache_share, r.origin_requests,
                     r.pii_violations, r.BounceRate(), r.page_views});
  };
  bench::JsonValue vanilla = arm(off);
  bench::JsonValue speed_kit = arm(on);
  bench::Table summary("", "",
                       {{.key = "profile", .width = 12},
                        {"network"},
                        {"p50_speedup"},
                        {"p99_speedup"},
                        {.key = "vanilla", .json_only = true},
                        {.key = "speed_kit", .json_only = true}});
  rows->Push(summary.Add(
      {profile.name, network, Speedup(off.load_ms.P50(), on.load_ms.P50()),
       Speedup(off.load_ms.P99(), on.load_ms.P99()), std::move(vanilla),
       std::move(speed_kit)}));
  char note[96];
  std::snprintf(note, sizeof(note), "p90 speedup %.2fx, ttfb_p50 speedup %.2fx",
                Speedup(off.load_ms.P90(), on.load_ms.P90()),
                Speedup(off.ttfb_ms.P50(), on.ttfb_ms.P50()));
  bench::Note(note);
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "pageload_ab");
  h.RejectUnreadFlags(bench::SharedFlags::kNone);
  bench::PrintHeader(
      "E5", "Page load time A/B: Speed Kit on vs off",
      "the paper's headline field experience (faster loads on real "
      "e-commerce traffic, GDPR-compliant personalization intact)");
  bench::JsonValue rows = bench::JsonValue::Array();
  for (bool mobile : {false, true}) {
    for (const auto& profile : kProfiles) RunProfile(profile, mobile, &rows);
  }
  h.Finish(std::move(rows));
  bench::Note(
      "expected shape: speed-kit wins at every percentile; pii_violations "
      "must be 0 on the speed_kit arm (vanilla arm has no user-scoped "
      "blocks cached, it fetches them with identity)");
  return 0;
}
