#include "sketch/client_sketch.h"

#include <utility>

namespace speedkit::sketch {

bool ClientSketch::NeedsRefresh(SimTime now) const {
  if (!HasSnapshot()) return true;
  return now - fetched_at_ >= refresh_interval_;
}

Status ClientSketch::Update(std::string_view serialized, SimTime now) {
  auto filter = BloomFilter::Deserialize(serialized);
  if (!filter.ok()) return filter.status();
  Install(std::make_shared<const BloomFilter>(std::move(filter).value()), now);
  return Status::Ok();
}

void ClientSketch::Install(std::shared_ptr<const BloomFilter> filter,
                           SimTime now) {
  filter_ = std::move(filter);
  fetched_at_ = now;
}

bool ClientSketch::MightBeStale(std::string_view key) const {
  return !HasSnapshot() || filter_->MightContain(key);
}

}  // namespace speedkit::sketch
