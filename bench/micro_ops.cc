// E10 — Micro-benchmarks (google-benchmark): the hot operations of the
// protocol, especially everything that runs on the user's device per
// intercepted request (the client proxy's overhead budget).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/http_cache.h"
#include "cache/lru_cache.h"
#include "coherence/sketch_publication.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "http/cache_control.h"
#include "http/message.h"
#include "http/url.h"
#include "invalidation/query_matcher.h"
#include "sketch/bloom_filter.h"
#include "sketch/cache_sketch.h"
#include "sketch/client_sketch.h"
#include "sketch/counting_bloom.h"
#include "workload/zipf.h"

namespace speedkit {
namespace {

std::string Key(size_t i) {
  return "https://shop.example.com/api/records/p" + std::to_string(i);
}

void BM_Murmur3_64(benchmark::State& state) {
  std::string key = Key(123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Murmur3_64(key));
  }
}
BENCHMARK(BM_Murmur3_64);

void BM_BloomAdd(benchmark::State& state) {
  sketch::BloomFilter filter(1 << 20, static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    filter.Add(Key(i++));
  }
}
BENCHMARK(BM_BloomAdd)->Arg(4)->Arg(7)->Arg(12);

void BM_BloomQuery(benchmark::State& state) {
  sketch::BloomFilter filter(1 << 20, static_cast<int>(state.range(0)));
  for (size_t i = 0; i < 100000; ++i) filter.Add(Key(i));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MightContain(Key(i++ % 200000)));
  }
}
BENCHMARK(BM_BloomQuery)->Arg(4)->Arg(7)->Arg(12);

void BM_ClientSketchCheck(benchmark::State& state) {
  // The per-request on-device cost: one membership check.
  sketch::CacheSketch server;
  coherence::SketchPublication publication(&server);
  SimTime now;
  for (size_t i = 0; i < 5000; ++i) {
    server.ReportInvalidation(Key(i), now + Duration::Seconds(60), now);
  }
  sketch::ClientSketch client(Duration::Seconds(30));
  publication.InstallInto(&client, now);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.MightBeStale(Key(i++ % 10000)));
  }
}
BENCHMARK(BM_ClientSketchCheck);

void BM_CountingBloomAddRemove(benchmark::State& state) {
  sketch::CountingBloomFilter cbf(1 << 18, 7);
  size_t i = 0;
  for (auto _ : state) {
    cbf.Add(Key(i));
    cbf.Remove(Key(i));
    ++i;
  }
}
BENCHMARK(BM_CountingBloomAddRemove);

// Server-side publication cost with about Arg live keys in a sliding
// window: each key stays Arg ms, and every iteration advances 1 ms and
// reports one fresh key, so one key expires, one enters, and Serialized
// rebuilds and re-encodes the snapshot instead of returning its memo. The
// report itself is one hash-map insert, noise beside the rebuild.
void BM_SketchSnapshot(benchmark::State& state) {
  const int64_t live = state.range(0);
  sketch::CacheSketch sketch;
  coherence::SketchPublication publication(&sketch);
  int64_t reported = 0;
  auto report_next = [&] {
    SimTime at = SimTime::FromMicros(reported * 1000);
    sketch.ReportInvalidation(Key(static_cast<size_t>(reported)),
                              at + Duration::Millis(live), at);
    ++reported;
    return at;
  };
  SimTime now;
  while (reported < live) now = report_next();
  size_t published_bytes = 0;
  for (auto _ : state) {
    now = report_next();
    std::shared_ptr<const std::string> bytes = publication.Serialized(now);
    published_bytes = bytes->size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetLabel(std::to_string(published_bytes) + "B published");
}
BENCHMARK(BM_SketchSnapshot)->Arg(1000)->Arg(10000)->Arg(100000);

// LRU index probe with a string_view key — the transparent-lookup path
// every cache layer (browser, edge, fragment) takes per request.
void BM_LruGet(benchmark::State& state) {
  cache::LruCache<int> cache(0);
  std::vector<std::string> keys;
  keys.reserve(10000);
  for (size_t i = 0; i < 10000; ++i) {
    keys.push_back(Key(i));
    cache.Put(keys.back(), static_cast<int>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Get(std::string_view(keys[i++ % keys.size()])));
  }
}
BENCHMARK(BM_LruGet);

// Same probe but materializing a std::string per lookup — what every Get
// cost before the index accepted heterogeneous keys. The delta vs
// BM_LruGet is the per-request allocation this PR removed.
void BM_LruGetWithKeyCopy(benchmark::State& state) {
  cache::LruCache<int> cache(0);
  std::vector<std::string> keys;
  keys.reserve(10000);
  for (size_t i = 0; i < 10000; ++i) {
    keys.push_back(Key(i));
    cache.Put(keys.back(), static_cast<int>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    std::string copy(keys[i++ % keys.size()]);
    benchmark::DoNotOptimize(cache.Get(copy));
  }
}
BENCHMARK(BM_LruGetWithKeyCopy);

void BM_UrlParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        http::Url::Parse("https://shop.example.com/api/records/p42?ref=x"));
  }
}
BENCHMARK(BM_UrlParse);

// One Zipf draw (s = 0.9), the step every session page and write target
// takes; the arg is the catalog size.
void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfGenerator zipf(static_cast<size_t>(state.range(0)), 0.9);
  Pcg32 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(2000)->Arg(100000);

void BM_CacheControlParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(http::CacheControl::Parse(
        "public, max-age=60, s-maxage=300, stale-while-revalidate=30"));
  }
}
BENCHMARK(BM_CacheControlParse);

// The origin's 200 head as OriginServer::Finish builds it: a fractional TTL
// with half of it as the stale-while-revalidate window, then the ETag.
http::HttpResponse OriginOk(http::Body body) {
  http::CacheControl cc;
  cc.is_public = true;
  cc.max_age = Duration::Seconds(87.4);
  cc.stale_while_revalidate = Duration::Seconds(87.4 * 0.5);
  http::HttpResponse resp =
      http::MakeOkResponse(std::move(body), cc, 12, SimTime::Origin());
  resp.SetETag("\"v12\"");
  return resp;
}

void BM_OriginHead(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(OriginOk({}));
  }
}
BENCHMARK(BM_OriginHead);

// An origin 200 stored in a browser cache, over the entry it replaces.
void BM_HttpCacheStore(benchmark::State& state) {
  const http::HttpResponse resp = OriginOk(http::Body(std::string(2048, 'x')));
  const std::string key = Key(1);
  cache::HttpCache browser(/*shared=*/false, /*capacity_bytes=*/0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(browser.Store(key, resp));
  }
}
BENCHMARK(BM_HttpCacheStore);

// The expiry-book container race: open-addressing FlatStringMap vs the
// node-based std::unordered_map it replaced. Upsert = the write path
// (ReportInvalidation), Find = the read path (horizon checks).
void BM_FlatMapUpsert(benchmark::State& state) {
  std::vector<std::string> keys;
  keys.reserve(10000);
  for (size_t i = 0; i < 10000; ++i) keys.push_back(Key(i));
  for (auto _ : state) {
    state.PauseTiming();
    FlatStringMap<int64_t> map;
    state.ResumeTiming();
    for (size_t i = 0; i < keys.size(); ++i) {
      map.Upsert(keys[i], static_cast<int64_t>(i));
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_FlatMapUpsert);

void BM_UnorderedMapUpsert(benchmark::State& state) {
  std::vector<std::string> keys;
  keys.reserve(10000);
  for (size_t i = 0; i < 10000; ++i) keys.push_back(Key(i));
  for (auto _ : state) {
    state.PauseTiming();
    std::unordered_map<std::string, int64_t> map;
    state.ResumeTiming();
    for (size_t i = 0; i < keys.size(); ++i) {
      map.emplace(keys[i], static_cast<int64_t>(i));
    }
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_UnorderedMapUpsert);

void BM_FlatMapFind(benchmark::State& state) {
  FlatStringMap<int64_t> map;
  std::vector<std::string> keys;
  keys.reserve(10000);
  for (size_t i = 0; i < 10000; ++i) {
    keys.push_back(Key(i));
    map.Upsert(keys.back(), static_cast<int64_t>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    // Half the probes miss — the horizon check's common case.
    benchmark::DoNotOptimize(
        map.Find(std::string_view(keys[(i++ * 7) % keys.size()])));
    benchmark::DoNotOptimize(map.Find("https://shop.example.com/api/miss"));
  }
}
BENCHMARK(BM_FlatMapFind);

void BM_UnorderedMapFind(benchmark::State& state) {
  std::unordered_map<std::string, int64_t> map;
  std::vector<std::string> keys;
  keys.reserve(10000);
  for (size_t i = 0; i < 10000; ++i) {
    keys.push_back(Key(i));
    map.emplace(keys.back(), static_cast<int64_t>(i));
  }
  std::string miss = "https://shop.example.com/api/miss";
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(keys[(i++ * 7) % keys.size()]));
    benchmark::DoNotOptimize(map.find(miss));
  }
}
BENCHMARK(BM_UnorderedMapFind);

void BM_MatcherWrite(benchmark::State& state) {
  invalidation::QueryMatcher matcher(/*use_index=*/state.range(1) != 0);
  for (int64_t i = 0; i < state.range(0); ++i) {
    invalidation::Query q;
    q.id = "q";
    q.id += std::to_string(i);
    q.conditions.push_back(
        {"category", invalidation::Op::kEq, static_cast<int64_t>(i % 100)});
    (void)matcher.Subscribe(std::move(q));
  }
  storage::Record record;
  record.id = "p1";
  record.version = 1;
  record.fields["category"] = static_cast<int64_t>(42);
  record.fields["price"] = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.MatchWrite(nullptr, record));
  }
}
BENCHMARK(BM_MatcherWrite)
    ->Args({10000, 1})
    ->Args({10000, 0})
    ->Args({100000, 1});

}  // namespace
}  // namespace speedkit

BENCHMARK_MAIN();
