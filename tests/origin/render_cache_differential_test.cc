// Differential check of the origin's render cache, which holds rendered
// bodies keyed by content version. One seeded sequence of writes and GETs
// runs against an origin with the cache on and one with it off: every
// response must match byte for byte, and the cached origin's hit/miss
// accounting and charged server times must equal those of a cache that
// stored versions alone (pinned below from that implementation).
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "origin/origin_server.h"

namespace speedkit::origin {
namespace {

constexpr char kBase[] = "https://shop.example.com";
constexpr int kProducts = 40;
constexpr int kCategories = 4;
constexpr int kSteps = 4000;

// One origin over its own clock, store and TTL policy.
struct World {
  explicit World(size_t render_cache_entries)
      : ttl_policy(Duration::Seconds(30)),
        server(Config(render_cache_entries), &clock, &store, &ttl_policy,
               nullptr) {}

  static OriginConfig Config(size_t render_cache_entries) {
    OriginConfig config;
    config.render_cache_entries = render_cache_entries;
    return config;
  }

  sim::SimClock clock;
  storage::ObjectStore store;
  ttl::FixedTtlPolicy ttl_policy;
  OriginServer server;
};

std::string ProductId(uint32_t i) { return "p" + std::to_string(i); }

std::map<std::string, storage::FieldValue> Fields(int64_t category,
                                                  double price) {
  return {{"category", category}, {"price", price}};
}

// Ordered and limited slices (where a write can land inside or outside
// the visible part) plus one unordered, unlimited listing per category.
std::vector<invalidation::Query> Queries() {
  std::vector<invalidation::Query> out;
  for (int64_t c = 0; c < kCategories; ++c) {
    const invalidation::Condition in_category{"category",
                                              invalidation::Op::kEq, c};
    invalidation::Query cheapest;
    cheapest.id = "cheapest3-" + std::to_string(c);
    cheapest.conditions.push_back(in_category);
    cheapest.order_by = "price";
    cheapest.limit = 3;
    out.push_back(cheapest);

    invalidation::Query priciest = cheapest;
    priciest.id = "priciest2-" + std::to_string(c);
    priciest.descending = true;
    priciest.limit = 2;
    out.push_back(priciest);

    invalidation::Query all;
    all.id = "all-" + std::to_string(c);
    all.conditions.push_back(in_category);
    out.push_back(all);
  }
  return out;
}

// The URL of one seeded GET: records (deleted ones included), queries (an
// unknown one included), segment/template/legacy-user fragments, plain
// and optimized assets, and the shell.
std::string DrawUrl(Pcg32& rng, const std::vector<invalidation::Query>& qs) {
  switch (rng.NextBounded(7)) {
    case 0:
    case 1:
      return std::string(kBase) + "/api/records/" +
             ProductId(rng.NextBounded(kProducts + 2));
    case 2:
    case 3: {
      uint32_t q = rng.NextBounded(static_cast<uint32_t>(qs.size()) + 1);
      return std::string(kBase) + "/api/queries/" +
             (q < qs.size() ? qs[q].id : "unknown");
    }
    case 4: {
      std::string url = std::string(kBase) + "/api/fragments/recs?page=" +
                        std::to_string(rng.NextBounded(3));
      switch (rng.NextBounded(3)) {
        case 0: return url + "&seg=s" + std::to_string(rng.NextBounded(3));
        case 1: return url + "&tpl=1";
        default: return url + "&user=" + std::to_string(rng.NextBounded(5));
      }
    }
    case 5:
      return std::string(kBase) + "/assets/a" +
             std::to_string(rng.NextBounded(4)) + ".css" +
             (rng.OneIn(2) ? "?skopt=1" : "");
    default:
      return std::string(kBase) + "/pages/home";
  }
}

// Applies one seeded write to `store`: a price change (moving a record
// across the visible slice of the ordered queries), a category move, a
// delete, or a re-put (resurrecting deleted records).
void ApplyWrite(uint32_t kind, const std::string& id, int64_t category,
                double price, storage::ObjectStore* store, SimTime now) {
  switch (kind) {
    case 0:
    case 1:
    case 2:
      store->Update(id, {{"price", price}}, now);
      break;
    case 3:
      store->Update(id, {{"category", category}}, now);
      break;
    case 4:
      (void)store->Delete(id, now);
      break;
    default:
      store->Put(id, Fields(category, price), now);
      break;
  }
}

uint64_t Fingerprint(uint64_t h, const http::HttpResponse& resp) {
  for (uint64_t v : {static_cast<uint64_t>(resp.status_code),
                     Fnv1a_64(resp.ETag()), Fnv1a_64(resp.body.ToString()),
                     resp.object_version,
                     static_cast<uint64_t>(resp.server_time.micros())}) {
    h = Mix64(h ^ v);
  }
  return h;
}

TEST(RenderCacheDifferentialTest, CachedOriginMatchesUncachedByteForByte) {
  World cached(100000);
  World uncached(0);
  const std::vector<invalidation::Query> queries = Queries();
  for (World* w : {&cached, &uncached}) {
    for (uint32_t i = 0; i < kProducts; ++i) {
      w->store.Put(ProductId(i),
                   Fields(i % kCategories, 10.0 + static_cast<double>(i)),
                   w->clock.Now());
    }
    for (const invalidation::Query& q : queries) {
      ASSERT_TRUE(w->server.RegisterQuery(q).ok());
    }
  }

  Pcg32 rng(0x5eed, 7);
  std::map<std::string, std::string> last_etag;  // per URL, cached world
  uint64_t fingerprint = 0;
  uint64_t conditional = 0;
  for (int step = 0; step < kSteps; ++step) {
    Duration dt = Duration::Millis(rng.NextBounded(2000));
    cached.clock.Advance(dt);
    uncached.clock.Advance(dt);

    if (rng.OneIn(4)) {
      uint32_t kind = rng.NextBounded(6);
      std::string id = ProductId(rng.NextBounded(kProducts));
      int64_t category = rng.NextBounded(kCategories);
      double price = rng.Uniform(1.0, 60.0);
      for (World* w : {&cached, &uncached}) {
        ApplyWrite(kind, id, category, price, &w->store, w->clock.Now());
      }
      continue;
    }

    std::string url = DrawUrl(rng, queries);
    http::HttpRequest request =
        http::HttpRequest::Get(*http::Url::Parse(url));
    if (rng.OneIn(3)) {
      // Revalidate with the last validator seen for this URL, which may
      // be current (304) or outdated (200 with the new version), or with
      // one that never matches.
      auto it = last_etag.find(url);
      bool known = it != last_etag.end() && !rng.OneIn(4);
      request.headers.Set("If-None-Match",
                          known ? it->second : std::string("\"v999\""));
      conditional++;
    }
    http::HttpResponse a = cached.server.Handle(request);
    http::HttpResponse b = uncached.server.Handle(request);
    ASSERT_EQ(a.status_code, b.status_code) << "step " << step << " " << url;
    ASSERT_EQ(a.ETag(), b.ETag()) << "step " << step << " " << url;
    ASSERT_EQ(a.body, b.body) << "step " << step << " " << url;
    ASSERT_EQ(a.object_version, b.object_version) << "step " << step;
    if (!a.ETag().empty()) last_etag[url] = a.ETag();
    fingerprint = Fingerprint(fingerprint, a);
  }

  const OriginStats& s = cached.server.stats();
  EXPECT_GT(conditional, 0u);
  EXPECT_GT(s.not_modified, 0u);
  EXPECT_EQ(s.not_modified, uncached.server.stats().not_modified);
  EXPECT_EQ(uncached.server.stats().render_cache_hits, 0u);
  // Pinned from the version-only render cache on this exact sequence:
  // the same Get/Put sequence gives the same hits, misses and charged
  // server time for every response.
  EXPECT_EQ(s.render_cache_hits, 1391u);
  EXPECT_EQ(s.render_cache_misses, 945u);
  EXPECT_EQ(s.render_time_us, 16423000);
  EXPECT_EQ(s.render_time_saved_us, 13002500);
  EXPECT_EQ(fingerprint, 0x7678a904acc8a5dcu);
}

// The visible slice of `q` by brute force over the store: the matching
// records sorted by sort value (records missing it first), then by id,
// with the direction and the limit applied.
std::vector<std::string> ExpectedSlice(const invalidation::Query& q,
                                       const storage::ObjectStore& store) {
  std::vector<const storage::Record*> rows;
  store.Scan([&](const storage::Record& r) {
    if (q.Matches(r)) rows.push_back(&r);
  });
  auto sort_value = [&](const storage::Record* r) {
    return q.IsOrdered() ? r->GetField(q.order_by) : nullptr;
  };
  std::sort(rows.begin(), rows.end(),
            [&](const storage::Record* a, const storage::Record* b) {
              const storage::FieldValue* va = sort_value(a);
              const storage::FieldValue* vb = sort_value(b);
              if (va == nullptr || vb == nullptr) {
                if (va != vb) return va == nullptr;
              } else if (invalidation::TotalOrderLess(*va, *vb)) {
                return true;
              } else if (invalidation::TotalOrderLess(*vb, *va)) {
                return false;
              }
              return a->id < b->id;
            });
  if (q.descending) std::reverse(rows.begin(), rows.end());
  if (q.limit != 0 && rows.size() > q.limit) rows.resize(q.limit);
  std::vector<std::string> ids;
  for (const storage::Record* r : rows) ids.push_back(r->id);
  return ids;
}

// The body of `q` rendered from scratch over its expected slice: the
// listing head, each record's Render() joined by ",", then the tail.
std::string ExpectedBody(const invalidation::Query& q,
                         const std::vector<std::string>& slice,
                         const storage::ObjectStore& store) {
  std::string body = "{\"query\":\"" + q.id + "\",\"results\":[";
  for (size_t i = 0; i < slice.size(); ++i) {
    if (i > 0) body += ",";
    body += store.Peek(slice[i])->Render();
  }
  return body + "]}";
}

// The record ids of a query response body, in order.
std::vector<std::string> ServedIds(std::string_view body) {
  constexpr std::string_view kMarker = "{\"id\":\"";
  std::vector<std::string> ids;
  for (size_t at = body.find(kMarker); at != std::string_view::npos;
       at = body.find(kMarker, at)) {
    at += kMarker.size();
    size_t end = body.find('"', at);
    ids.emplace_back(body.substr(at, end - at));
  }
  return ids;
}

bool Contains(const std::vector<std::string>& ids, const std::string& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

// The origin's materialized results against a brute-force rebuild from
// the store after every write: the served slice must equal the expected
// one, the served body must equal a from-scratch render of that slice
// (so no memoized record fragment may outlive its record's version), and
// a result's version must rise iff the written record is in its old or
// its new expected slice. Writes enter, leave, change in place,
// move the sort key, delete and re-put; they also drop the sort field (a
// Put without price sorts first) and write integer prices that tie with
// other records' double prices (a cross-type tie broken by id).
TEST(RenderCacheDifferentialTest, MaterializedResultsMatchBruteForce) {
  const std::vector<invalidation::Query> queries = Queries();
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    World w(100000);
    for (uint32_t i = 0; i < kProducts; ++i) {
      w.store.Put(ProductId(i), Fields(i % kCategories, 10.0 + i % 8),
                  w.clock.Now());
    }
    for (const invalidation::Query& q : queries) {
      ASSERT_TRUE(w.server.RegisterQuery(q).ok());
    }
    auto get = [&](const invalidation::Query& q) {
      return w.server.Handle(http::HttpRequest::Get(*http::Url::Parse(
          std::string(kBase) + "/api/queries/" + q.id)));
    };
    std::vector<std::vector<std::string>> slices;
    std::vector<uint64_t> versions;
    for (const invalidation::Query& q : queries) {
      http::HttpResponse resp = get(q);
      slices.push_back(ExpectedSlice(q, w.store));
      versions.push_back(resp.object_version);
      ASSERT_EQ(ServedIds(resp.body.ToString()), slices.back()) << q.id;
      ASSERT_EQ(resp.body, ExpectedBody(q, slices.back(), w.store)) << q.id;
    }

    Pcg32 rng(seed, 11);
    for (int step = 0; step < 1500; ++step) {
      w.clock.Advance(Duration::Millis(1 + rng.NextBounded(1000)));
      std::string id = ProductId(rng.NextBounded(kProducts));
      int64_t category = rng.NextBounded(kCategories);
      // Integral prices often, so int and double prices tie.
      int64_t whole = 1 + rng.NextBounded(12);
      double price = rng.OneIn(2) ? static_cast<double>(whole)
                                  : rng.Uniform(1.0, 13.0);
      switch (rng.NextBounded(8)) {
        case 0:
        case 1:
          w.store.Update(id, {{"price", price}}, w.clock.Now());
          break;
        case 2:
          w.store.Update(id, {{"price", whole}}, w.clock.Now());
          break;
        case 3:
          w.store.Update(id, {{"category", category}}, w.clock.Now());
          break;
        case 4:
          (void)w.store.Delete(id, w.clock.Now());
          break;
        case 5:
          w.store.Put(id, {{"category", category}}, w.clock.Now());
          break;
        default:
          w.store.Put(id, Fields(category, price), w.clock.Now());
          break;
      }

      for (size_t i = 0; i < queries.size(); ++i) {
        std::vector<std::string> slice = ExpectedSlice(queries[i], w.store);
        http::HttpResponse resp = get(queries[i]);
        ASSERT_EQ(ServedIds(resp.body.ToString()), slice)
            << "step " << step << " " << queries[i].id;
        ASSERT_EQ(resp.body, ExpectedBody(queries[i], slice, w.store))
            << "step " << step << " " << queries[i].id;
        bool touched = Contains(slices[i], id) || Contains(slice, id);
        ASSERT_EQ(resp.object_version, versions[i] + (touched ? 1 : 0))
            << "step " << step << " " << queries[i].id << " wrote " << id;
        slices[i] = std::move(slice);
        versions[i] = resp.object_version;
      }
    }
  }
}

// The legacy ?user= fragment is no-store and carries PII: the render cache
// keeps its version (so accounting is unchanged) but never its bytes, so
// every fetch renders a fresh buffer. A cacheable fragment, by contrast, is
// handed out as the one stored buffer.
TEST(RenderCacheDifferentialTest, NoStoreBodiesAreNeverKept) {
  World w(100000);
  auto get = [&](const std::string& path) {
    return w.server.Handle(
        http::HttpRequest::Get(*http::Url::Parse(kBase + path)));
  };
  const std::string user = "/api/fragments/recs?page=1&user=42";
  http::HttpResponse first = get(user);
  http::HttpResponse second = get(user);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.body, second.body);
  EXPECT_FALSE(first.body.SharesBufferWith(second.body));
  EXPECT_EQ(second.server_time, kRenderCacheHitTime);
  EXPECT_EQ(w.server.stats().render_cache_hits, 1u);

  const std::string seg = "/api/fragments/recs?page=1&seg=s1";
  EXPECT_TRUE(get(seg).body.SharesBufferWith(get(seg).body));
}

}  // namespace
}  // namespace speedkit::origin
