#include "core/fleet.h"

#include <algorithm>

namespace speedkit::core {

ShardedFleet::ShardedFleet(const StackConfig& config) {
  stacks_.reserve(static_cast<size_t>(std::max(1, config.shards)));
  for (int s = 0; s < config.shards; ++s) {
    stacks_.push_back(std::make_unique<SpeedKitStack>(config, s));
  }
}

void ForEachShard(int shards, int threads,
                  const std::function<void(int)>& fn) {
  auto run = [&fn](size_t s) { fn(static_cast<int>(s)); };
  if (threads <= 1 || shards <= 1) {
    ParallelFor(nullptr, static_cast<size_t>(shards), run);
    return;
  }
  ThreadPool pool(static_cast<size_t>(std::min(threads, shards)));
  ParallelFor(&pool, static_cast<size_t>(shards), run);
}

}  // namespace speedkit::core
