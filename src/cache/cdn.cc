#include "cache/cdn.h"

#include <cassert>
#include <iterator>
#include <utility>

#include "common/hash.h"

namespace speedkit::cache {

std::string_view OriginFlightModeName(OriginFlightMode mode) {
  switch (mode) {
    case OriginFlightMode::kInstant: return "instant";
    case OriginFlightMode::kHerd: return "herd";
    case OriginFlightMode::kCoalesce: return "coalesce";
  }
  return "unknown";
}

Cdn::Cdn(int num_edges, size_t edge_capacity_bytes)
    : map_(std::make_shared<ShardedEdgeMap>(num_edges, edge_capacity_bytes)),
      faults_(std::make_unique<ShardLocalStats>()) {
  assert(num_edges >= 1 && "Cdn requires at least one edge");
  map_->BindOwnership(1);
  owned_.reserve(static_cast<size_t>(num_edges));
  for (int i = 0; i < num_edges; ++i) owned_.push_back(i);
  faults_->per_edge.resize(owned_.size());
}

Cdn::Cdn(std::shared_ptr<ShardedEdgeMap> map, int shard, int shards)
    : map_(std::move(map)),
      shard_(shard),
      shards_(shards),
      faults_(std::make_unique<ShardLocalStats>()) {
  assert(shards >= 1 && shard >= 0 && shard < shards);
  assert(map_->num_edges() % shards == 0 &&
         "edge count must divide evenly across shards");
  map_->BindOwnership(shards);
  owned_.reserve(static_cast<size_t>(map_->num_edges() / shards));
  for (int e = shard; e < map_->num_edges(); e += shards) owned_.push_back(e);
  faults_->per_edge.resize(owned_.size());
}

int Cdn::RouteFor(uint64_t client_id) const {
  // Route over the PHYSICAL tier so the client->edge pinning is identical
  // at every shard count, then translate to this view's local space.
  int physical =
      static_cast<int>(Mix64(client_id) % static_cast<uint64_t>(map_->num_edges()));
  return physical / shards_;
}

bool Cdn::OwnsClient(uint64_t client_id) const {
  int physical =
      static_cast<int>(Mix64(client_id) % static_cast<uint64_t>(map_->num_edges()));
  return physical % shards_ == shard_;
}

void Cdn::BeginFlight(int i, const std::string& key, SimTime now,
                      SimTime ready_at) {
  if (flights_.empty()) flights_.resize(owned_.size());
  auto& table = flights_[static_cast<size_t>(i)];
  // Keys whose flights landed but were never looked up again would pin the
  // table forever; sweep them wholesale before it gets large.
  if (table.size() >= 4096) {
    for (auto it = table.begin(); it != table.end();) {
      it = it->second <= now ? table.erase(it) : std::next(it);
    }
  }
  auto it = table.find(key);
  if (it != table.end()) {
    if (it->second > now) return;  // open flight: herd fetches never extend
    it->second = ready_at;         // expired: this fetch leads a new flight
  } else {
    table.emplace(key, ready_at);
  }
  faults_->flights_started++;
}

std::optional<SimTime> Cdn::OpenFlightReadyAt(int i, const std::string& key,
                                              SimTime now) {
  if (flights_.empty()) return std::nullopt;
  auto& table = flights_[static_cast<size_t>(i)];
  auto it = table.find(key);
  if (it == table.end()) return std::nullopt;
  if (it->second <= now) {
    table.erase(it);  // lazy reap: the flight landed before this arrival
    return std::nullopt;
  }
  return it->second;
}

EdgeFaultStats Cdn::TotalFaultStats() const {
  EdgeFaultStats total;
  for (const EdgeFaultStats& s : faults_->per_edge) total += s;
  return total;
}

HttpCacheStats Cdn::TotalStats() const {
  HttpCacheStats total;
  for (int i = 0; i < num_edges(); ++i) {
    const HttpCacheStats& s = slot(i).cache.stats();
    total.fresh_hits += s.fresh_hits;
    total.stale_hits += s.stale_hits;
    total.misses += s.misses;
    total.stores += s.stores;
    total.store_rejects += s.store_rejects;
    total.refreshes += s.refreshes;
    total.purges += s.purges;
  }
  return total;
}

}  // namespace speedkit::cache
