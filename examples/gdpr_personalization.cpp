// GDPR-compliant personalization, demonstrated: the same personalized page
// rendered through (a) Speed Kit's on-device join and (b) the legacy
// send-the-user-id approach, with a boundary auditor watching every byte
// that leaves the device.
//
//   ./build/examples/gdpr_personalization
#include <cstdio>

#include "core/stack.h"

using namespace speedkit;

namespace {

void RenderPage(core::SpeedKitStack& stack, bool gdpr_mode) {
  std::printf("\n=== %s ===\n",
              gdpr_mode ? "Speed Kit GDPR mode (on-device join)"
                        : "legacy personalization (identity sent upstream)");

  // The shopper's personal data lives in the on-device vault only.
  personalization::PiiVault vault(481516);
  vault.Put("name", "Grace Hopper");
  vault.Put("email", "grace@example.org");
  vault.Put("cart", "COBOL compiler, 1 nanosecond of wire");

  // The auditor knows every sensitive value and inspects outgoing traffic.
  personalization::BoundaryAuditor auditor;
  auditor.RegisterVault(vault);

  proxy::ProxyConfig pc = stack.DefaultProxyConfig();
  pc.gdpr_mode = gdpr_mode;
  auto client = stack.MakeClient(pc, vault.user_id(), &auditor);
  client->AttachVault(&vault);

  personalization::PageTemplate page;
  page.url = "https://shop.example.com/pages/home";
  page.blocks = {
      {"hero-banner", personalization::BlockScope::kStatic},
      {"recommendations", personalization::BlockScope::kSegment},
      {"greeting", personalization::BlockScope::kUser},
      {"cart-preview", personalization::BlockScope::kUser},
  };
  personalization::Segmenter segmenter(32);
  std::printf("segment for this user: %s (reveals %.0f identity bits)\n",
              segmenter.SegmentFor(vault.user_id()).c_str(),
              segmenter.IdentityBits());

  for (const auto& block : page.blocks) {
    proxy::BlockResult r = client->FetchBlock(page, block, segmenter);
    std::string preview = r.content.substr(0, 58);
    std::printf("  %-16s [%s] %-10s %6.1f ms | %s\n", block.id.c_str(),
                std::string(personalization::BlockScopeName(block.scope)).c_str(),
                r.rendered_on_device
                    ? "on-device"
                    : std::string(proxy::ServedFromName(r.source)).c_str(),
                r.latency.millis(), preview.c_str());
  }

  std::printf("boundary audit: %llu requests inspected, %llu PII "
              "violations\n",
              static_cast<unsigned long long>(auditor.inspected()),
              static_cast<unsigned long long>(auditor.violations()));
  for (const auto& v : auditor.samples()) {
    std::printf("  LEAK: token \"%s\" in %s of %s\n", v.leaked_token.c_str(),
                v.location.c_str(), v.url.c_str());
  }
}

}  // namespace

int main() {
  std::printf("GDPR-compliant caching of personalized content\n");
  std::printf("==============================================\n");
  core::StackConfig config;
  core::SpeedKitStack stack(config);
  RenderPage(stack, /*gdpr_mode=*/true);
  RenderPage(stack, /*gdpr_mode=*/false);
  std::printf(
      "\ntakeaway: the GDPR path renders the same personalized page with "
      "zero identity egress —\nthe CDN only ever sees anonymous templates "
      "and cohort ids, so no data-processing agreement is needed.\n");
  return 0;
}
