// E7 — Caching personalized content: how much of a personalized page can
// still be served from caches, as the user-scoped share and the segment
// count vary — and what GDPR mode costs.
//
// Reproduces the paper's personalization pillar: dynamic blocks let the
// cacheable share stay high even on "personalized" pages (segment blocks
// are shared within cohorts; user blocks join on-device). The legacy
// baseline fetches user content with identity and caches none of it.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "core/stack.h"

namespace speedkit {
namespace {

struct BlockRunResult {
  double cache_hit_share = 0;     // block fetches served from a cache
  double bytes_from_cache = 0;    // share of block bytes not re-downloaded
  Duration mean_latency = Duration::Zero();
  uint64_t pii_violations = 0;
};

// `user_share`: fraction of a page's 8 blocks that are user-scoped;
// the rest are segment-scoped.
BlockRunResult RunBlocks(double user_share, int segments, bool gdpr_mode,
                         int num_users) {
  core::StackConfig config;
  core::SpeedKitStack stack(config);

  personalization::PageTemplate tpl;
  tpl.url = "https://shop.example.com/pages/home";
  constexpr int kBlocks = 8;
  int user_blocks = static_cast<int>(user_share * kBlocks + 0.5);
  for (int i = 0; i < kBlocks; ++i) {
    personalization::BlockScope scope =
        i < user_blocks ? personalization::BlockScope::kUser
                        : personalization::BlockScope::kSegment;
    tpl.blocks.push_back(
        {"b" + std::to_string(i), scope, 2048});
  }
  personalization::Segmenter segmenter(segments);

  BlockRunResult result;
  uint64_t fetches = 0;
  uint64_t cache_hits = 0;
  int64_t total_latency_us = 0;
  std::vector<std::unique_ptr<personalization::PiiVault>> vaults;
  std::vector<std::unique_ptr<personalization::BoundaryAuditor>> auditors;

  for (int u = 0; u < num_users; ++u) {
    uint64_t user_id = 7000 + static_cast<uint64_t>(u);
    vaults.push_back(std::make_unique<personalization::PiiVault>(user_id));
    vaults.back()->Put("name", "User " + std::to_string(user_id));
    vaults.back()->Put("cart", std::to_string(u % 3) + " items");
    auditors.push_back(std::make_unique<personalization::BoundaryAuditor>());
    auditors.back()->RegisterVault(*vaults.back());
    proxy::ProxyConfig pc = stack.DefaultProxyConfig();
    pc.gdpr_mode = gdpr_mode;
    auto client = stack.MakeClient(pc, user_id, auditors.back().get());
    client->AttachVault(vaults.back().get());

    for (const auto& block : tpl.blocks) {
      proxy::BlockResult r = client->FetchBlock(tpl, block, segmenter);
      fetches++;
      total_latency_us += r.latency.micros();
      if (r.source == proxy::ServedFrom::kBrowserCache ||
          r.source == proxy::ServedFrom::kEdgeCache) {
        cache_hits++;
      }
    }
    result.pii_violations += auditors.back()->violations();
  }
  result.cache_hit_share =
      static_cast<double>(cache_hits) / static_cast<double>(fetches);
  result.mean_latency =
      Duration::Micros(total_latency_us / static_cast<int64_t>(fetches));
  return result;
}

void UserShareSweep(bench::JsonValue* rows) {
  bench::Table table(
      "cache hits on block fetches vs user-scoped share (64 segments, "
      "200 users, GDPR mode vs legacy)",
      "user_share",
      {{"user_share", 0, true},
       {"gdpr_hit_share", 1, true},
       {"gdpr_latency_ms"},
       {"legacy_hit_share", 1, true},
       {"legacy_pii_violations"}});
  for (double share : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    BlockRunResult gdpr = RunBlocks(share, 64, true, 200);
    BlockRunResult legacy = RunBlocks(share, 64, false, 200);
    rows->Push(table.Add({share, gdpr.cache_hit_share,
                          gdpr.mean_latency.millis(), legacy.cache_hit_share,
                          legacy.pii_violations}));
  }
  bench::Note("GDPR mode keeps hit share high even at 100% user-scoped "
              "blocks (templates are shared); legacy hit share collapses "
              "and leaks identity on every user-block fetch");
}

void SegmentCountSweep(bench::JsonValue* rows) {
  bench::Table table(
      "segment blocks: cache hits vs cohort count (0% user share, "
      "200 users)",
      "segment_count",
      {{"segments"}, {"hit_share", 1, true}, {"identity_bits", 1}});
  for (int segments : {1, 4, 16, 64, 256, 1024}) {
    BlockRunResult r = RunBlocks(0.0, segments, true, 200);
    personalization::Segmenter seg(segments);
    rows->Push(
        table.Add({segments, r.cache_hit_share, seg.IdentityBits()}));
  }
  bench::Note("more segments = more personalization but fewer shared "
              "fragments (hit share drops) and more identity bits: the "
              "privacy/performance dial");
}

}  // namespace
}  // namespace speedkit

int main(int argc, char** argv) {
  using namespace speedkit;
  bench::Harness h(argc, argv, "personalized");
  bench::PrintHeader(
      "E7", "Caching personalized content: dynamic blocks & GDPR mode",
      "the paper's personalization pillar (segment/user block split, "
      "on-device join, zero PII egress)");
  bench::JsonValue rows = bench::JsonValue::Array();
  UserShareSweep(&rows);
  SegmentCountSweep(&rows);
  h.Finish(std::move(rows));
  return 0;
}
