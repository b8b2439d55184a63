// Dynamic blocks: Speed Kit's decomposition of a personalized page.
//
// A page is a cacheable static shell plus blocks with one of three scopes:
//   kStatic   shared by everyone            -> cached like any asset
//   kSegment  shared by a user cohort       -> cached under a segment key
//             (cohorts, not identities: the segment id carries no PII)
//   kUser     specific to one person        -> never cached outside the
//             device; in GDPR mode rendered on-device from the PII vault
//
// This split is what lets Speed Kit cache "personalized" pages at all:
// static and segment blocks are shared through the edges, and in GDPR mode
// so is a user block's anonymous template. E7 measures the share of block
// fetches that a cache serves as the user-scope share and segment count
// vary. ClientProxy::FetchBlock turns a block into one fragment URL, which
// is also its cache key in every tier.
#ifndef SPEEDKIT_PERSONALIZATION_DYNAMIC_BLOCK_H_
#define SPEEDKIT_PERSONALIZATION_DYNAMIC_BLOCK_H_

#include <string>
#include <string_view>
#include <vector>

namespace speedkit::personalization {

enum class BlockScope { kStatic, kSegment, kUser };

std::string_view BlockScopeName(BlockScope scope);

struct DynamicBlock {
  std::string id;
  BlockScope scope = BlockScope::kStatic;
};

struct PageTemplate {
  std::string url;  // absolute URL of the page shell
  std::vector<DynamicBlock> blocks;
};

}  // namespace speedkit::personalization

#endif  // SPEEDKIT_PERSONALIZATION_DYNAMIC_BLOCK_H_
