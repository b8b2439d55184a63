#include "core/replay.h"

#include <vector>

#include "common/hash.h"
#include "workload/session.h"
#include "workload/write_process.h"
#include "workload/zipf.h"

namespace speedkit::core {

uint64_t ReplayResult::Fingerprint() const {
  uint64_t h = Mix64(fetches);
  h ^= Mix64(writes + 0x9e37);
  h ^= Mix64(errors + 0x79b9);
  h ^= Mix64(static_cast<uint64_t>(latency_us.Sum()));
  h ^= Mix64(proxies.browser_hits);
  h ^= Mix64(proxies.edge_hits + 1);
  h ^= Mix64(proxies.origin_fetches + 2);
  h ^= Mix64(proxies.sketch_bypasses + 3);
  return h;
}

TraceReplayer::TraceReplayer(SpeedKitStack* stack)
    : stack_(stack),
      proxy_config_(stack->DefaultProxyConfig()),
      pool_(stack->MakeClientPool(proxy::ClientPoolConfig{})) {}

proxy::ClientProxy& TraceReplayer::ClientFor(uint64_t client_id) {
  auto [it, inserted] = clients_.try_emplace(client_id, nullptr);
  if (inserted) it->second = pool_->MakeClient(proxy_config_, client_id);
  return *it->second;
}

ReplayResult TraceReplayer::Replay(const workload::Trace& trace) {
  ReplayResult result;
  SimTime last = stack_->clock().Now();
  for (const workload::TraceEvent& ev : trace.events()) {
    // Pointer into the trace's storage: stable for the whole replay (the
    // loop reference itself dies each iteration).
    const workload::TraceEvent* event = &ev;
    stack_->events().At(event->at, [this, &result, event]() {
      if (event->kind == workload::TraceEvent::Kind::kFetch) {
        proxy::FetchResult r = ClientFor(event->client_id).Fetch(event->url);
        result.fetches++;
        result.latency_us.Add(r.latency.micros());
        if (!r.response.ok()) {
          result.errors++;
        } else if (r.response.object_version > 0) {
          // Re-parse for the canonical cache key; a trace loaded from disk
          // can carry malformed URLs, so never dereference unchecked.
          auto url = http::Url::Parse(event->url);
          if (url.ok()) {
            stack_->staleness().RecordRead(
                url->CacheKey(), r.response.object_version,
                stack_->clock().Now(),
                /*excused=*/r.source == proxy::ServedFrom::kOfflineCache);
          } else {
            result.errors++;
          }
        }
      } else {
        stack_->store().Update(event->record_id, event->fields,
                               stack_->clock().Now());
        result.writes++;
      }
    });
    if (ev.at > last) last = ev.at;
  }
  stack_->AdvanceTo(last + Duration::Seconds(1));  // drain trailing purges
  result.proxies = pool_->stats();
  return result;
}

workload::Trace SynthesizeTrace(const workload::Catalog& catalog,
                                size_t num_clients, Duration duration,
                                double writes_per_sec, uint64_t seed) {
  workload::Trace trace;
  Pcg32 rng(seed);
  SimTime end = SimTime::Origin() + duration;

  // Browsing: one session stream per client.
  for (size_t c = 0; c < num_clients; ++c) {
    workload::SessionGenerator sessions(&catalog, workload::SessionConfig{},
                                        rng.Fork(100 + c));
    Pcg32 gaps = rng.Fork(200 + c);
    SimTime t = SimTime::Origin() + Duration::Seconds(gaps.Uniform(0, 30));
    while (t < end) {
      for (const workload::PageView& view : sessions.NextSession()) {
        t = t + view.think_time_before;
        if (t >= end) break;
        if (auto url = workload::PageViewUrl(catalog, view)) {
          trace.AddFetch(t, c + 1, std::move(*url));
        }
      }
      t = t + Duration::Seconds(gaps.Exponential(1.0 / 45.0));
    }
  }

  // Writes: Poisson price updates.
  workload::WriteProcess writes(catalog.num_products(), writes_per_sec, 0.8,
                                rng.Fork(999));
  Pcg32 update_rng = rng.Fork(998);
  SimTime t = SimTime::Origin();
  while (true) {
    workload::WriteEvent ev = writes.Next(t);
    if (ev.at >= end) break;
    t = ev.at;
    trace.AddWrite(t, catalog.ProductId(ev.object_rank),
                   catalog.PriceUpdate(ev.object_rank, update_rng));
  }

  trace.SortByTime();
  return trace;
}

workload::Trace SynthesizeZipfTrace(const workload::Catalog& catalog,
                                    size_t num_clients,
                                    uint64_t requests_per_client,
                                    size_t hot_products, double zipf_s,
                                    uint64_t seed, SimTime start,
                                    Duration pace) {
  size_t hot = hot_products;
  if (hot == 0 || hot > catalog.num_products()) hot = catalog.num_products();
  workload::ZipfGenerator popularity(hot, zipf_s);
  std::vector<Pcg32> streams;
  for (size_t c = 0; c < num_clients; ++c) {
    streams.push_back(Pcg32(seed).Fork(0x10ad0000 + c));
  }
  workload::Trace trace;
  for (uint64_t i = 0; i < requests_per_client; ++i) {
    for (size_t c = 0; c < num_clients; ++c) {
      trace.AddFetch(start, c,
                     catalog.ProductUrl(popularity.Sample(streams[c])));
    }
  }
  // The one timing rule, shared with callers that re-pace the trace.
  trace.Restamp(start, pace);
  return trace;
}

}  // namespace speedkit::core
