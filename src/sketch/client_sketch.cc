#include "sketch/client_sketch.h"

#include <utility>

namespace speedkit::sketch {

bool ClientSketch::NeedsRefresh(SimTime now) const {
  if (!has_snapshot_) return true;
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
  has_snapshot_ = true;
  fetched_at_ = now;
}

bool ClientSketch::MightBeStale(std::string_view key) const {
  return !has_snapshot_ || filter_->MightContain(key);
}

}  // namespace speedkit::sketch
