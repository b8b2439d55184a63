#include "origin/origin_server.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/strings.h"
#include "invalidation/pipeline.h"

namespace speedkit::origin {

namespace {

// Deterministic filler so synthetic bodies hit their target transfer size.
std::string FillBody(std::string prefix, size_t target_bytes) {
  if (prefix.size() < target_bytes) {
    prefix.append(target_bytes - prefix.size(), 'x');
  }
  return prefix;
}

// Extracts "name=value" from a query string; empty when absent.
std::string_view QueryParam(std::string_view query, std::string_view name) {
  for (std::string_view pair : SplitView(query, '&')) {
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    if (EqualsIgnoreCase(pair.substr(0, eq), name)) {
      return pair.substr(eq + 1);
    }
  }
  return {};
}

std::string VersionETag(uint64_t version) {
  return "\"v" + std::to_string(version) + "\"";
}

}  // namespace

OriginServer::OriginServer(const OriginConfig& config, sim::SimClock* clock,
                           storage::ObjectStore* store,
                           ttl::TtlPolicy* ttl_policy,
                           coherence::SketchPublication* publication)
    : config_(config),
      clock_(clock),
      store_(store),
      ttl_policy_(ttl_policy),
      publication_(publication),
      render_cache_(config.render_cache_entries) {
  store_->AddWriteListener(
      [this](const storage::Record* before, const storage::Record& after) {
        OnWrite(before, after);
      });
}

storage::FieldValue OriginServer::MaterializedQuery::SortValueOf(
    const storage::Record& record) const {
  if (!query.IsOrdered()) return storage::FieldValue(static_cast<int64_t>(0));
  const storage::FieldValue* value = record.GetField(query.order_by);
  // Records missing the sort field sort first (SQL NULLS FIRST).
  if (value == nullptr) return storage::FieldValue(INT64_MIN);
  return *value;
}

size_t OriginServer::MaterializedQuery::PositionOf(
    const storage::Record& image) const {
  auto less = [&image](const Member& m, const storage::FieldValue& value) {
    if (invalidation::TotalOrderLess(m.sort_value, value)) return true;
    if (invalidation::TotalOrderLess(value, m.sort_value)) return false;
    return m.id < image.id;
  };
  return std::lower_bound(members.begin(), members.end(), SortValueOf(image),
                          less) -
         members.begin();
}

size_t OriginServer::MaterializedQuery::Insert(const storage::Record& record) {
  size_t at = PositionOf(record);
  members.insert(members.begin() + at,
                 Member{SortValueOf(record), record.id, http::Body()});
  return at;
}

bool OriginServer::MaterializedQuery::IsVisible(size_t position) const {
  if (query.limit == 0) return true;
  return query.descending ? position + query.limit >= members.size()
                          : position < query.limit;
}

Status OriginServer::RegisterQuery(invalidation::Query query) {
  Status s = matcher_.Subscribe(query);
  if (!s.ok()) return s;
  MaterializedQuery mq;
  mq.query = query;
  store_->Scan([&mq](const storage::Record& record) {
    if (mq.query.Matches(record)) mq.Insert(record);
  });
  queries_.emplace(query.id, std::move(mq));
  return Status::Ok();
}

void OriginServer::OnWrite(const storage::Record* before,
                           const storage::Record& after) {
  SimTime now = clock_->Now();
  ttl_policy_->ObserveWrite(invalidation::RecordCacheKey(after.id), now);
  for (const std::string& id : matcher_.MatchWrite(before, after)) {
    MaterializedQuery& mq = queries_.find(id)->second;
    // The rendered result changed iff the written record sits inside the
    // old or the new visible slice. Outside both, the slice holds the same
    // records in the same order.
    bool changed = false;
    if (before != nullptr && mq.query.Matches(*before)) {
      // Its entry was built from its latest image, which is `before`.
      size_t at = mq.PositionOf(*before);
      assert(at < mq.members.size() && mq.members[at].id == before->id);
      changed = mq.IsVisible(at);
      mq.members.erase(mq.members.begin() + at);
    }
    if (mq.query.Matches(after)) changed |= mq.IsVisible(mq.Insert(after));
    if (!changed) continue;

    mq.result_version++;
    ttl_policy_->ObserveWrite(invalidation::QueryCacheKey(id), now);
    if (query_version_listener_) {
      query_version_listener_(invalidation::QueryCacheKey(id),
                              mq.result_version);
    }
  }
}

http::HttpResponse OriginServer::Handle(const http::HttpRequest& request) {
  stats_.requests++;
  if (!available_) {
    stats_.rejected_unavailable++;
    return http::MakeServiceUnavailable();
  }
  const std::string& path = request.url.path();
  if (StartsWith(path, "/api/records/")) {
    stats_.record_requests++;
    return ServeRecord(request, std::string_view(path).substr(13));
  }
  if (StartsWith(path, "/api/queries/")) {
    stats_.query_requests++;
    return ServeQuery(request, std::string_view(path).substr(13));
  }
  if (StartsWith(path, "/api/fragments/")) {
    stats_.fragment_requests++;
    return ServeFragment(request, std::string_view(path).substr(15));
  }
  if (StartsWith(path, "/assets/")) {
    stats_.asset_requests++;
    return ServeAsset(request, std::string_view(path).substr(8));
  }
  if (StartsWith(path, "/pages/")) {
    stats_.asset_requests++;
    return ServeShell(request, std::string_view(path).substr(7));
  }
  if (path == "/sketch") {
    stats_.sketch_requests++;
    return ServeSketch();
  }
  return http::MakeNotFound();
}

template <typename RenderFn>
http::Body OriginServer::CachedRender(const std::string& key,
                                      uint64_t version, Duration render_time,
                                      bool no_store, RenderFn&& render,
                                      Duration* server_time,
                                      http::HeaderMap* headers) {
  if (config_.render_cache_entries == 0) {
    stats_.render_cache_misses++;
    stats_.render_time_us += render_time.micros();
    *server_time = render_time;
    return http::Body(render());
  }
  RenderedBody* cached = render_cache_.Get(key);
  if (cached != nullptr && cached->version == version) {
    stats_.render_cache_hits++;
    stats_.render_time_saved_us +=
        (render_time - config_.render_cache_hit_time).micros();
    *server_time = config_.render_cache_hit_time;
    if (no_store) return http::Body(render());
    if (cached->headers == *headers) {
      *headers = cached->headers;
    } else {
      cached->headers = *headers;  // the TTL moved: the fresh block wins
    }
    return cached->body;
  }
  stats_.render_cache_misses++;
  stats_.render_time_us += render_time.micros();
  *server_time = render_time;
  http::Body body(render());
  render_cache_.Put(key, no_store ? RenderedBody{version, {}, {}}
                                  : RenderedBody{version, body, *headers});
  return body;
}

template <typename RenderFn>
http::HttpResponse OriginServer::Finish(const http::HttpRequest& request,
                                        const std::string& key,
                                        uint64_t body_version, Duration ttl,
                                        Duration render_time,
                                        RenderFn&& render) {
  SimTime now = clock_->Now();
  http::CacheControl cc;
  cc.is_public = true;
  Duration swr = Duration::Zero();
  if (ttl > Duration::Zero()) {
    cc.max_age = ttl;
    if (config_.swr_fraction > 0) {
      swr = ttl * config_.swr_fraction;
      cc.stale_while_revalidate = swr;
    }
  } else {
    cc.no_cache = true;  // storable, but must be revalidated before use
    cc.max_age = Duration::Zero();
  }
  std::string etag = VersionETag(body_version);

  if (ttl > Duration::Zero()) {
    // The stale horizon must cover the SWR window too: a client may
    // legitimately re-serve this copy that long.
    expiry_book_.RecordServed(key, now + ttl + swr);
  }

  if (auto inm = request.headers.Get("If-None-Match");
      inm.has_value() && *inm == etag) {
    // Validation needs the current version, not a render.
    stats_.not_modified++;
    http::HttpResponse resp =
        http::MakeNotModified(etag, cc, body_version, now);
    resp.server_time = config_.render_cache_hit_time;
    return resp;
  }

  http::HttpResponse resp = http::MakeOkResponse({}, cc, body_version, now);
  resp.SetETag(etag);
  resp.body = CachedRender(key, body_version, render_time, /*no_store=*/false,
                           std::forward<RenderFn>(render), &resp.server_time,
                           &resp.headers);
  return resp;
}

http::HttpResponse OriginServer::ServeRecord(const http::HttpRequest& request,
                                             std::string_view id) {
  const storage::Record* record = store_->Peek(id);
  if (record == nullptr) return http::MakeNotFound();
  std::string key = request.url.CacheKey();
  Duration ttl = ttl_policy_->TtlFor(key, clock_->Now());
  return Finish(request, key, record->version, ttl,
                config_.record_render_time,
                [record] { return record->Render(); });
}

http::HttpResponse OriginServer::ServeQuery(const http::HttpRequest& request,
                                            std::string_view query_id) {
  auto it = queries_.find(std::string(query_id));
  if (it == queries_.end()) return http::MakeNotFound();
  MaterializedQuery& mq = it->second;
  std::string key = request.url.CacheKey();
  Duration ttl = ttl_policy_->TtlFor(key, clock_->Now());
  return Finish(request, key, mq.result_version, ttl,
                config_.query_render_time, [this, &mq] {
                  // The listing shares each member's memoized fragment, so
                  // a render after a write renders only the written record.
                  size_t n = mq.members.size();
                  size_t take =
                      mq.query.limit == 0 ? n : std::min(mq.query.limit, n);
                  std::vector<http::Body> parts;
                  parts.reserve(take);
                  for (size_t i = 0; i < take; ++i) {
                    MaterializedQuery::Member& member =
                        mq.members[mq.query.descending ? n - 1 - i : i];
                    if (member.fragment.empty()) {
                      // Members are live records: Query::Matches rejects
                      // deleted ones and the store never erases a record.
                      const storage::Record* record = store_->Peek(member.id);
                      assert(record != nullptr);
                      member.fragment = http::Body(record->Render());
                    }
                    parts.push_back(member.fragment);
                  }
                  return http::Body::Join(
                      "{\"query\":\"" + mq.query.id + "\",\"results\":[",
                      std::move(parts), ",", "]}");
                });
}

http::HttpResponse OriginServer::ServeFragment(const http::HttpRequest& request,
                                               std::string_view block_id) {
  const std::string& query = request.url.query();
  std::string key = request.url.CacheKey();
  std::string_view user = QueryParam(query, "user");
  if (!user.empty()) {
    // Legacy personalization: rendered per user, carries identity, never
    // cacheable anywhere — including the render cache, which keeps only
    // the version of a no-store body, never the PII-bearing bytes.
    http::HttpResponse resp;
    resp.status_code = 200;
    resp.body = CachedRender(
        key, /*version=*/1, config_.fragment_render_time, /*no_store=*/true,
        [&] {
          return FillBody(
              StrFormat("<div class=\"%s\">Hello user %s! Recommendations: ...",
                        std::string(block_id).c_str(),
                        std::string(user).c_str()),
              config_.fragment_bytes);
        },
        &resp.server_time, &resp.headers);
    http::CacheControl cc;
    cc.is_private = true;
    cc.no_store = true;
    resp.SetCacheControl(cc);
    resp.object_version = 1;
    resp.generated_at = clock_->Now();
    return resp;
  }

  Duration ttl = ttl_policy_->TtlFor(key, clock_->Now());
  return Finish(request, key, /*body_version=*/1, ttl,
                config_.fragment_render_time, [&] {
                  std::string prefix;
                  if (QueryParam(query, "tpl") == "1") {
                    // Anonymous template of a user-scoped block:
                    // placeholders only, fully cacheable. The client proxy
                    // joins it with vault data on-device.
                    prefix = StrFormat(
                        "<div class=\"%s\">Hello {{name}}! Your cart: "
                        "{{cart}}. Recommendations for {{segment}}: ...",
                        std::string(block_id).c_str());
                  } else {
                    std::string_view seg = QueryParam(query, "seg");
                    prefix = StrFormat(
                        "<div class=\"%s\" data-segment=\"%s\">...",
                        std::string(block_id).c_str(),
                        std::string(seg).c_str());
                  }
                  return FillBody(std::move(prefix), config_.fragment_bytes);
                });
}

http::HttpResponse OriginServer::ServeAsset(const http::HttpRequest& request,
                                            std::string_view name) {
  return Finish(
      request, request.url.CacheKey(), /*body_version=*/1, config_.asset_ttl,
      config_.asset_render_time, [&] {
        // skopt=1 requests the optimized variant (transcoded/minified by
        // the acceleration service): same content, fewer bytes.
        if (QueryParam(request.url.query(), "skopt") == "1") {
          return FillBody("asset-optimized:" + std::string(name) + ";",
                          static_cast<size_t>(
                              static_cast<double>(config_.asset_bytes) *
                              config_.optimized_asset_factor));
        }
        return FillBody("asset:" + std::string(name) + ";",
                        config_.asset_bytes);
      });
}

http::HttpResponse OriginServer::ServeShell(const http::HttpRequest& request,
                                            std::string_view name) {
  // HTML is dynamic content: its cacheability is exactly what the TTL
  // policy (and with it the deployed system variant) decides. A site
  // without coherence ships no-cache HTML; Speed Kit's estimator makes the
  // shell cacheable because the sketch bounds its staleness. The
  // configured shell_ttl caps the policy's answer.
  std::string key = request.url.CacheKey();
  Duration ttl =
      std::min(ttl_policy_->TtlFor(key, clock_->Now()), config_.shell_ttl);
  return Finish(request, key, /*body_version=*/1, ttl,
                config_.shell_render_time, [&] {
                  return FillBody(
                      "<html><!-- shell:" + std::string(name) + " -->",
                      config_.shell_bytes);
                });
}

http::HttpResponse OriginServer::ServeSketch() {
  http::HttpResponse resp;
  resp.status_code = 200;
  // Sketchless origins still serve the route: a publication over a null
  // sketch yields the constant empty filter's bytes. The response shares
  // the publication's memoized buffer.
  static coherence::SketchPublication empty_publication(nullptr);
  coherence::SketchPublication* pub =
      publication_ != nullptr ? publication_ : &empty_publication;
  resp.body = http::Body(pub->Serialized(clock_->Now()));
  http::CacheControl cc;
  cc.no_store = true;  // snapshots must never be cached
  resp.SetCacheControl(cc);
  resp.generated_at = clock_->Now();
  return resp;
}

}  // namespace speedkit::origin
