#include "probes.h"

#include <algorithm>
#include <memory>

#include "cache/http_cache.h"
#include "common/random.h"
#include "http/message.h"
#include "http/url.h"
#include "net/http_codec.h"
#include "sketch/client_sketch.h"

namespace perfbench {

namespace sk = speedkit;

namespace {

// Keeps probe results observable so no call can be optimized away.
volatile uint64_t g_sink = 0;

// Times `calls` invocations of fn(k) per round; returns the median over
// rounds of the mean ns per call.
template <typename Fn>
double BatchNs(size_t calls, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < kProbeRounds; ++r) {
    Clock::time_point t0 = Clock::now();
    for (size_t k = 0; k < calls; ++k) fn(k);
    rounds.push_back(static_cast<double>(NanosSince(t0)) /
                     static_cast<double>(calls));
  }
  return Median(rounds);
}

uint64_t Calls(size_t per_round) { return per_round * kProbeRounds; }

std::string CacheKeyOf(const std::string& url) {
  auto parsed = sk::http::Url::Parse(url);
  return parsed.ok() ? parsed->CacheKey() : url;
}

sk::http::HttpRequest GetRequest(const std::string& url) {
  auto parsed = sk::http::Url::Parse(url);
  return sk::http::HttpRequest::Get(parsed.ok() ? *parsed : sk::http::Url());
}

}  // namespace

void ProbeCaches(sk::core::SpeedKitStack& stack, const ProbeTargets& targets,
                 Report* report) {
  if (targets.warm.empty()) return;
  const sk::SimTime now = stack.clock().Now();
  struct Pair {
    sk::cache::HttpCache* browser;
    sk::cache::HttpCache* edge;
    std::string key;
  };
  std::vector<Pair> pairs;
  std::vector<sk::proxy::ClientProxy*> clients;
  for (const auto& [client, url] : targets.warm) {
    // browser_cache() thaws a spilled cache: done here, outside the timing.
    sk::cache::Cdn& cdn = stack.cdn();
    pairs.push_back(Pair{&client->browser_cache(),
                         &cdn.edge(cdn.RouteFor(client->client_id())),
                         CacheKeyOf(url)});
    if (std::find(clients.begin(), clients.end(), client) == clients.end()) {
      clients.push_back(client);
    }
  }
  const size_t n = pairs.size();
  report->Set("cache.browser_lookup_ns", "ns", BatchNs(n, [&](size_t k) {
                const Pair& p = pairs[k];
                g_sink = g_sink + static_cast<uint64_t>(
                                      p.browser->Lookup(p.key, now).outcome);
              }),
              Calls(n));
  report->Set("cache.edge_lookup_ns", "ns", BatchNs(n, [&](size_t k) {
                const Pair& p = pairs[k];
                g_sink = g_sink + static_cast<uint64_t>(
                                      p.edge->Lookup(p.key, now).outcome);
              }),
              Calls(n));

  std::vector<sk::cache::HttpCache*> caches;
  for (sk::proxy::ClientProxy* client : clients) {
    caches.push_back(&client->browser_cache());
  }
  std::vector<std::string> blobs(caches.size());
  report->Set("cache.freeze_ns", "ns", BatchNs(caches.size(), [&](size_t k) {
                blobs[k] = caches[k]->Freeze();
              }),
              Calls(caches.size()));
  sk::cache::HttpCache thawed(/*shared=*/false,
                               clients.front()->config().browser_cache_bytes);
  report->Set("cache.thaw_ns", "ns", BatchNs(blobs.size(), [&](size_t k) {
                g_sink = g_sink + (thawed.Thaw(blobs[k]) ? 1 : 0);
              }),
              Calls(blobs.size()));
  double bytes = 0;
  for (const std::string& blob : blobs) {
    bytes += static_cast<double>(blob.size());
  }
  report->Set("cache.frozen_bytes_per_client", "B",
              bytes / static_cast<double>(blobs.size()), blobs.size());
}

void ProbeOrigin(sk::core::SpeedKitStack& stack, const ProbeTargets& targets,
                 Report* report) {
  sk::origin::OriginServer& origin = stack.origin();
  std::vector<sk::http::HttpRequest> queries, conditional, records;
  for (const std::string& url : targets.query_urls) {
    queries.push_back(GetRequest(url));
    sk::http::HttpRequest cond = queries.back();
    cond.headers.Set("If-None-Match", origin.Handle(queries.back()).ETag());
    conditional.push_back(std::move(cond));
  }
  for (size_t i = 0; i < targets.record_urls.size() && i < kProbeKeys; ++i) {
    records.push_back(GetRequest(targets.record_urls[i]));
  }
  if (queries.empty() || records.empty()) return;
  const size_t calls = 256;
  uint64_t not_modified = 0;
  report->Set("origin.query_200_ns", "ns", BatchNs(calls, [&](size_t k) {
                g_sink = g_sink + static_cast<uint64_t>(
                                      origin.Handle(queries[k % queries.size()])
                                          .status_code);
              }),
              Calls(calls));
  report->Set("origin.query_304_ns", "ns", BatchNs(calls, [&](size_t k) {
                not_modified +=
                    origin.Handle(conditional[k % conditional.size()])
                        .IsNotModified();
              }),
              Calls(calls));
  report->Set("origin.query_304_share", "ratio",
              static_cast<double>(not_modified) /
                  static_cast<double>(Calls(calls)),
              Calls(calls));
  report->Set("origin.record_200_ns", "ns", BatchNs(calls, [&](size_t k) {
                g_sink = g_sink + static_cast<uint64_t>(
                                      origin.Handle(records[k % records.size()])
                                          .status_code);
              }),
              Calls(calls));
}

void ProbeSketch(sk::core::SpeedKitStack& stack, Report* report) {
  sk::sketch::CacheSketch* sketch = stack.sketch();
  if (sketch == nullptr) return;
  sk::coherence::SketchPublication& publication =
      stack.coherence_protocol().publication();
  const sk::SimTime now = stack.clock().Now();
  const size_t per_round = 32;
  std::vector<double> rounds;
  for (int r = 0; r < kProbeRounds; ++r) {
    double ns = 0;
    for (size_t k = 0; k < per_round; ++k) {
      // One fresh invalidation dirties the publication memo, so the next
      // Serialized call re-encodes the snapshot.
      sketch->ReportInvalidation(
          "https://shop.example.com/api/records/perfbench-probe-" +
              std::to_string(r * per_round + k),
          now + sk::Duration::Seconds(60), now);
      Clock::time_point t0 = Clock::now();
      g_sink = g_sink + publication.Serialized(now)->size();
      ns += static_cast<double>(NanosSince(t0));
    }
    rounds.push_back(ns / per_round);
  }
  report->Set("sketch.publish_ns", "ns", Median(rounds), Calls(per_round));

  sk::sketch::ClientSketch client(stack.config().coherence.delta);
  const size_t installs = 4096;
  report->Set("sketch.install_ns", "ns", BatchNs(installs, [&](size_t) {
                g_sink = g_sink + publication.InstallInto(&client, now);
              }),
              Calls(installs));
}

void ProbeUrlParse(const std::vector<std::string>& urls, Report* report) {
  if (urls.empty()) return;
  const size_t calls = 4096;
  report->Set("http.url_parse_ns", "ns", BatchNs(calls, [&](size_t k) {
                auto url = sk::http::Url::Parse(urls[k % urls.size()]);
                g_sink = g_sink + (url.ok() ? url->path().size() : 0);
              }),
              Calls(calls));
}

void ProbeWireParse(const std::vector<std::string>& urls, Report* report) {
  std::vector<std::string> wires;
  for (size_t i = 0; i < urls.size() && i < kProbeKeys; ++i) {
    auto url = sk::http::Url::Parse(urls[i]);
    if (!url.ok()) continue;
    sk::http::HeaderMap headers;
    headers.Set("Host", url->host());
    headers.Set("X-SpeedKit-Client", std::to_string(i));
    wires.push_back(sk::net::SerializeRequest(sk::http::Method::kGet,
                                              url->path(), headers));
  }
  if (wires.empty()) return;
  const size_t calls = 4096;
  report->Set("net.parse_ns", "ns", BatchNs(calls, [&](size_t k) {
                sk::net::WireRequest req;
                size_t consumed = 0;
                sk::net::ParseStatus st =
                    sk::net::ParseRequest(wires[k % wires.size()], &req,
                                          &consumed);
                g_sink = g_sink + consumed + static_cast<uint64_t>(st);
              }),
              Calls(calls));
}

void ProbeFetchTiers(sk::core::SpeedKitStack& stack,
                     const std::vector<std::string>& cold_urls,
                     const std::vector<std::string>& warm_urls,
                     Report* report) {
  constexpr int kClients = 4;
  constexpr uint64_t kFirstProbeClient = 1u << 30;
  std::vector<double> by_tier[3];  // browser, edge, origin
  auto fetch = [&](sk::proxy::ClientProxy& client, const sk::http::Url& url) {
    Clock::time_point t0 = Clock::now();
    sk::proxy::FetchResult r = client.Fetch(url);
    const double ns = static_cast<double>(NanosSince(t0));
    using sk::proxy::ServedFrom;
    switch (r.source) {
      case ServedFrom::kBrowserCache: by_tier[0].push_back(ns); break;
      case ServedFrom::kEdgeCache: by_tier[1].push_back(ns); break;
      case ServedFrom::kOrigin: by_tier[2].push_back(ns); break;
      default: break;
    }
  };
  auto parse_all = [](const std::vector<std::string>& texts) {
    std::vector<sk::http::Url> urls;
    for (const std::string& text : texts) {
      auto url = sk::http::Url::Parse(text);
      if (url.ok()) urls.push_back(*url);
    }
    return urls;
  };
  const std::vector<sk::http::Url> cold = parse_all(cold_urls);
  const std::vector<sk::http::Url> warm = parse_all(warm_urls);
  for (int c = 0; c < kClients; ++c) {
    std::unique_ptr<sk::proxy::ClientProxy> client =
        stack.MakeClient(kFirstProbeClient + static_cast<uint64_t>(c));
    // Each client takes its own quarter of the cold keys, so every one of
    // them is an origin serve.
    for (size_t i = static_cast<size_t>(c); i < cold.size(); i += kClients) {
      fetch(*client, cold[i]);
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (const sk::http::Url& url : warm) fetch(*client, url);
    }
  }
  report->SetPercentiles("proxy.fetch_ns.browser", "ns", std::move(by_tier[0]));
  report->SetPercentiles("proxy.fetch_ns.edge", "ns", std::move(by_tier[1]));
  report->SetPercentiles("proxy.fetch_ns.origin", "ns", std::move(by_tier[2]));
}

void ProbeWrites(sk::core::SpeedKitStack& stack,
                 const sk::workload::Catalog& catalog, Report* report) {
  constexpr size_t kWrites = 1024;
  sk::storage::ObjectStore& store = stack.store();
  const sk::invalidation::PipelineStats before =
      stack.pipeline() != nullptr ? stack.pipeline()->stats()
                                  : sk::invalidation::PipelineStats{};
  const sk::SimTime now = stack.clock().Now();
  sk::Pcg32 rng(0x9e37, 0x1);
  std::vector<double> updates;
  for (size_t k = 0; k < kWrites; ++k) {
    size_t rank = (k * 7919) % catalog.num_products();
    auto fields = catalog.PriceUpdate(rank, rng);
    const std::string id = catalog.ProductId(rank);
    Clock::time_point t0 = Clock::now();
    g_sink = g_sink + store.Update(id, fields, now);
    updates.push_back(static_cast<double>(NanosSince(t0)));
  }
  report->SetPercentiles("storage.update_ns", "ns", std::move(updates));
  if (stack.pipeline() != nullptr) {
    const sk::invalidation::PipelineStats& after = stack.pipeline()->stats();
    report->Set("invalidation.keys_per_write", "count",
                static_cast<double>(after.keys_invalidated -
                                    before.keys_invalidated) /
                    kWrites,
                kWrites);
    report->Set("invalidation.purges_per_write", "count",
                static_cast<double>(after.purges_scheduled -
                                    before.purges_scheduled) /
                    kWrites,
                kWrites);
  }
  // Deliver the purges those writes scheduled.
  Clock::time_point t0 = Clock::now();
  size_t events = stack.events().RunUntil(now + sk::Duration::Seconds(10));
  const double ns = static_cast<double>(NanosSince(t0));
  report->Set("sim.dispatch_ns_per_event", "ns",
              events > 0 ? ns / static_cast<double>(events) : 0.0, events);
}

}  // namespace perfbench
