#include "cache/cdn.h"

#include <cassert>
#include <iterator>

#include "common/hash.h"

namespace speedkit::cache {

std::string_view OriginFlightModeName(OriginFlightMode mode) {
  switch (mode) {
    case OriginFlightMode::kInstant: return "instant";
    case OriginFlightMode::kCoalesce: return "coalesce";
  }
  return "unknown";
}

Status ParseOriginFlightMode(std::string_view text, OriginFlightMode* out) {
  for (OriginFlightMode mode :
       {OriginFlightMode::kInstant, OriginFlightMode::kCoalesce}) {
    if (text != OriginFlightModeName(mode)) continue;
    *out = mode;
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "unknown origin flight mode (expected instant or coalesce)");
}

Cdn::Cdn(int physical_edges, int shard, int shards,
         OriginFlightMode flight_mode)
    : physical_edges_(physical_edges),
      shard_(shard),
      shards_(shards),
      flight_mode_(flight_mode) {
  assert(physical_edges >= 1 && "Cdn requires at least one edge");
  assert(shards >= 1 && shard >= 0 && shard < shards);
  assert(physical_edges % shards == 0 &&
         "edge count must divide evenly across shards");
  edges_.resize(static_cast<size_t>(physical_edges / shards));
}

int Cdn::RouteFor(uint64_t client_id) const {
  // Route over the PHYSICAL tier so the client->edge pinning is identical
  // at every shard count, then translate to this shard's local space.
  int physical =
      static_cast<int>(Mix64(client_id) % static_cast<uint64_t>(physical_edges_));
  return physical / shards_;
}

bool Cdn::OwnsClient(uint64_t client_id) const {
  int physical =
      static_cast<int>(Mix64(client_id) % static_cast<uint64_t>(physical_edges_));
  return physical % shards_ == shard_;
}

void Cdn::BeginFlight(int i, const std::string& key, SimTime now,
                      SimTime ready_at) {
  auto& table = at(i).flights;
  // Keys whose flights landed but were never looked up again would pin the
  // table forever; sweep them wholesale before it gets large.
  if (table.size() >= 4096) {
    for (auto it = table.begin(); it != table.end();) {
      it = it->second <= now ? table.erase(it) : std::next(it);
    }
  }
  auto it = table.find(key);
  if (it != table.end()) {
    if (it->second > now) return;  // open flight: never extended
    it->second = ready_at;         // expired: this fetch leads a new flight
  } else {
    table.emplace(key, ready_at);
  }
  flights_started_++;
}

std::optional<SimTime> Cdn::OpenFlightReadyAt(int i, const std::string& key,
                                              SimTime now) {
  auto& table = at(i).flights;
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
  for (const Edge& e : edges_) total += e.faults;
  return total;
}

HttpCacheStats Cdn::TotalStats() const {
  HttpCacheStats total;
  for (const Edge& e : edges_) {
    const HttpCacheStats& s = e.cache.stats();
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
