#include "cache/http_cache.h"

#include <string_view>
#include <utility>

#include "cache/freeze_codec.h"

namespace speedkit::cache {

static_assert(sizeof(CacheEntry) == 72);

HttpCache::HttpCache(bool shared, size_t capacity_bytes)
    : shared_(shared),
      entries_(capacity_bytes, [](const CacheEntry& e) {
        return e.response.WireSize() + 64;  // entry bookkeeping overhead
      }) {}

LookupResult HttpCache::Lookup(std::string_view key, SimTime now) {
  CacheEntry* entry = entries_.Get(key);
  if (entry == nullptr) {
    stats_.misses++;
    return LookupResult{LookupOutcome::kMiss, nullptr};
  }
  if (entry->IsFresh(now)) {
    stats_.fresh_hits++;
    return LookupResult{LookupOutcome::kFreshHit, entry};
  }
  stats_.stale_hits++;
  return LookupResult{LookupOutcome::kStaleHit, entry};
}

bool HttpCache::Store(std::string_view key,
                      const http::HttpResponse& response) {
  if (!response.ok() || response.body.empty()) return false;
  http::CacheControl cc = response.GetCacheControl();
  // A varying response is keyed on request headers as well as the URL;
  // this cache keys on the URL alone, so it refuses the response rather
  // than risk serving it to a request it was not made for.
  if (!cc.Storable(shared_) || response.headers.Has("Vary")) {
    stats_.store_rejects++;
    return false;
  }

  CacheEntry entry;
  entry.response = response;
  auto freshness =
      shared_ ? cc.FreshnessForSharedCache() : cc.FreshnessForPrivateCache();
  entry.ttl = freshness.value_or(Duration::Zero());
  entry.swr = cc.stale_while_revalidate.value_or(Duration::Zero());
  entry.requires_revalidation = cc.no_cache;
  if (entries_.Put(key, std::move(entry)) == PutOutcome::kRejectedOversized) {
    // Larger than the whole cache budget: dropped (and any stale resident
    // evicted). Surface it — a silent "stored" here inflates hit-rate
    // expectations for exactly the responses that can never hit.
    stats_.store_rejects++;
    return false;
  }
  stats_.stores++;
  return true;
}

void HttpCache::Refresh(std::string_view key,
                        const http::HttpResponse& not_modified) {
  CacheEntry* entry = entries_.Get(key);
  if (entry == nullptr) return;
  http::CacheControl cc = not_modified.GetCacheControl();
  auto freshness =
      shared_ ? cc.FreshnessForSharedCache() : cc.FreshnessForPrivateCache();
  entry->ttl = freshness.value_or(Duration::Zero());
  entry->swr = cc.stale_while_revalidate.value_or(Duration::Zero());
  // The validator confirmed the representation: freshness restarts from
  // the 304's render time. An origin-minted 304 carries generated_at ==
  // revalidation time; a cache-minted 304 (edge answering a matching
  // client validator) carries its entry's original render time, which
  // propagates Age correctly instead of silently extending freshness.
  entry->response.generated_at = not_modified.generated_at;
  entry->response.object_version = not_modified.object_version;
  entry->requires_revalidation = false;
  stats_.refreshes++;
}

bool HttpCache::Purge(std::string_view key) {
  bool removed = entries_.Erase(key);
  if (removed) stats_.purges++;
  return removed;
}

void HttpCache::Clear() { entries_.Clear(); }

namespace {
constexpr uint32_t kFreezeMagic = 0x534b4643;  // "SKFC": SpeedKit FreezeCache
// The same layout with body and header-block indexes in place of body
// bytes and header fields: a handle blob can never be mistaken for a
// self-contained one.
constexpr uint32_t kFreezeHandlesMagic = 0x534b4648;  // "SKFH"

// Reads a self-contained blob's header count and fields as one block: a
// first pass over a copy of the reader sizes it, the second fills it.
http::HeaderMap ReadHead(ByteReader* r) {
  uint32_t count = r->U32();
  ByteReader sizing = *r;
  size_t text_bytes = 0;
  for (uint32_t i = 0; i < count && sizing.ok(); ++i) {
    text_bytes += sizing.Str().size();
    text_bytes += sizing.Str().size();
  }
  if (!sizing.ok()) {
    r->Fail();
    return {};
  }
  http::HeaderMap::Builder head(count, text_bytes);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name = r->Str();
    head.Append(name, r->Str());
  }
  return head.Finish();
}
}  // namespace

std::string HttpCache::Freeze(FrozenHandles* handles) const {
  ByteWriter w;
  w.U32(handles != nullptr ? kFreezeHandlesMagic : kFreezeMagic);
  w.U8(shared_ ? 1 : 0);
  w.U64(entries_.capacity_bytes());
  w.U64(stats_.fresh_hits);
  w.U64(stats_.stale_hits);
  w.U64(stats_.misses);
  w.U64(stats_.stores);
  w.U64(stats_.store_rejects);
  w.U64(stats_.refreshes);
  w.U64(stats_.purges);
  w.U64(entries_.evictions());
  w.U64(entries_.oversized_rejections());
  w.U32(static_cast<uint32_t>(entries_.size()));
  if (handles != nullptr) {
    handles->bodies.reserve(handles->bodies.size() + entries_.size());
    handles->headers.reserve(handles->headers.size() + entries_.size());
  }
  // Least- to most-recently-used: replaying Put in this order rebuilds the
  // exact recency chain, so post-thaw eviction order is unchanged.
  entries_.ForEachLruToMru([&w, handles](std::string_view key,
                                         const CacheEntry& e) {
    w.Str(key);
    w.I64(e.ttl.micros());
    w.I64(e.swr.micros());
    w.U8(e.requires_revalidation ? 1 : 0);
    const http::HttpResponse& r = e.response;
    w.U32(static_cast<uint32_t>(r.status_code));
    w.U64(r.object_version);
    w.I64(r.generated_at.micros());
    w.I64(r.server_time.micros());
    if (handles != nullptr) {
      w.U32(static_cast<uint32_t>(handles->bodies.size()));
      handles->bodies.push_back(r.body);
      w.U32(static_cast<uint32_t>(handles->headers.size()));
      handles->headers.push_back(r.headers);
      return;
    }
    // The same u32 length and bytes a flat body writes, chunk by chunk.
    w.U32(static_cast<uint32_t>(r.body.size()));
    r.body.ForEachChunk([&w](std::string_view chunk) { w.Bytes(chunk); });
    w.U32(static_cast<uint32_t>(r.headers.size()));
    for (const auto& [name, value] : r.headers) {
      w.Str(name);
      w.Str(value);
    }
  });
  std::string blob = w.Take();
  // A handle blob is what a spilled client holds while it idles, so it
  // must not pin the slack appending left behind. A self-contained blob
  // is a transient copy; trimming it would copy every body once more.
  if (handles != nullptr) blob.shrink_to_fit();
  return blob;
}

bool HttpCache::Thaw(std::string_view blob, const FrozenHandles* handles) {
  Clear();
  ByteReader r(blob);
  if (r.U32() != (handles != nullptr ? kFreezeHandlesMagic : kFreezeMagic) ||
      r.U8() != (shared_ ? 1 : 0) ||
      r.U64() != entries_.capacity_bytes()) {
    return false;
  }
  HttpCacheStats stats;
  stats.fresh_hits = r.U64();
  stats.stale_hits = r.U64();
  stats.misses = r.U64();
  stats.stores = r.U64();
  stats.store_rejects = r.U64();
  stats.refreshes = r.U64();
  stats.purges = r.U64();
  uint64_t evictions = r.U64();
  uint64_t oversized = r.U64();
  uint32_t entry_count = r.U32();
  for (uint32_t i = 0; i < entry_count && r.ok(); ++i) {
    std::string_view key = r.Str();
    CacheEntry e;
    e.ttl = Duration::Micros(r.I64());
    e.swr = Duration::Micros(r.I64());
    e.requires_revalidation = r.U8() != 0;
    e.response.status_code = static_cast<int>(r.U32());
    e.response.object_version = r.U64();
    e.response.generated_at = SimTime::FromMicros(r.I64());
    e.response.server_time = Duration::Micros(r.I64());
    if (handles != nullptr) {
      uint32_t body_index = r.U32();
      uint32_t headers_index = r.U32();
      if (body_index < handles->bodies.size() &&
          headers_index < handles->headers.size()) {
        e.response.body = handles->bodies[body_index];
        e.response.headers = handles->headers[headers_index];
      } else {
        r.Fail();
      }
    } else {
      e.response.body = http::Body(r.Str());
      e.response.headers = ReadHead(&r);
    }
    if (r.ok()) entries_.Put(key, std::move(e));
  }
  if (!r.ok() || !r.AtEnd()) {
    Clear();
    return false;
  }
  stats_ = stats;
  entries_.RestoreCounters(evictions, oversized);
  return true;
}

}  // namespace speedkit::cache
