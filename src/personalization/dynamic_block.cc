#include "personalization/dynamic_block.h"

namespace speedkit::personalization {

std::string_view BlockScopeName(BlockScope scope) {
  switch (scope) {
    case BlockScope::kStatic:
      return "static";
    case BlockScope::kSegment:
      return "segment";
    case BlockScope::kUser:
      return "user";
  }
  return "static";
}

}  // namespace speedkit::personalization
