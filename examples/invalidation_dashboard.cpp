// Invalidation pipeline walk-through: watch a single write ripple through
// real-time query matching, CDN purge fan-out and the Cache Sketch —
// the invalidation-based half of the polyglot architecture, narrated.
//
//   ./build/examples/invalidation_dashboard
#include <cstdio>

#include "core/stack.h"
#include "invalidation/pipeline.h"

using namespace speedkit;

namespace {

void SketchStatus(core::SpeedKitStack& stack, const char* when) {
  std::printf("[%8.3fs] sketch: %zu tracked key(s), snapshot %zu bytes %s\n",
              stack.clock().Now().seconds(), stack.sketch()->entries(),
              stack.coherence_protocol()
                  .publication()
                  .Serialized(stack.clock().Now())
                  ->size(),
              when);
}

void EdgeStatus(core::SpeedKitStack& stack, const std::string& key) {
  std::printf("[%8.3fs] edges holding %s: ", stack.clock().Now().seconds(),
              key.c_str());
  for (int e = 0; e < stack.cdn().num_edges(); ++e) {
    bool held = stack.cdn().edge(e).Lookup(key, stack.clock().Now()).entry !=
                nullptr;
    std::printf("%d:%s ", e, held ? "yes" : "no ");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("invalidation pipeline dashboard\n");
  std::printf("===============================\n\n");

  core::StackConfig config;
  config.cdn_edges = 4;
  config.pipeline.purge_median_delay = Duration::Millis(80);
  core::SpeedKitStack stack(config);

  // Catalog of two shoes; a watched query caches "all products on sale".
  stack.store().Put("shoe-red",
                    {{"category", static_cast<int64_t>(1)},
                     {"price", 99.0},
                     {"on_sale", false}},
                    stack.clock().Now());
  stack.store().Put("shoe-blue",
                    {{"category", static_cast<int64_t>(1)},
                     {"price", 89.0},
                     {"on_sale", false}},
                    stack.clock().Now());
  invalidation::Query on_sale;
  on_sale.id = "on-sale";
  on_sale.conditions.push_back(
      {"on_sale", invalidation::Op::kEq, true});
  (void)stack.origin().RegisterQuery(on_sale);
  std::printf("watching query: %s\n", on_sale.ToString().c_str());
  stack.Advance(Duration::Seconds(5));

  // Seed every edge with the product page and the query result.
  std::string product_key = invalidation::RecordCacheKey("shoe-red");
  std::string query_key = invalidation::QueryCacheKey("on-sale");
  for (int e = 0; e < stack.cdn().num_edges(); ++e) {
    auto req = http::HttpRequest::Get(*http::Url::Parse(product_key));
    stack.cdn().edge(e).Store(product_key, stack.origin().Handle(req));
    auto qreq = http::HttpRequest::Get(*http::Url::Parse(query_key));
    stack.cdn().edge(e).Store(query_key, stack.origin().Handle(qreq));
  }
  std::printf("\nseeded all edges with the product page and the 'on-sale' "
              "listing\n");
  EdgeStatus(stack, product_key);
  SketchStatus(stack, "(quiescent)");

  // The write: shoe-red goes on sale. This changes (a) its record page and
  // (b) the on-sale query result (it enters the result set).
  std::printf("\n>>> WRITE: shoe-red goes on sale (price 79.0)\n\n");
  stack.store().Update("shoe-red", {{"price", 79.0}, {"on_sale", true}},
                       stack.clock().Now());

  SketchStatus(stack, "(write just landed: both keys tracked)");
  EdgeStatus(stack, product_key);
  std::printf("           ...purges are in flight (median 80 ms per edge)\n");
  stack.Advance(Duration::Millis(60));
  EdgeStatus(stack, product_key);
  stack.Advance(Duration::Millis(300));
  EdgeStatus(stack, product_key);
  EdgeStatus(stack, query_key);

  const invalidation::PipelineStats& ps = stack.pipeline()->stats();
  std::printf("\npipeline: %llu write(s) -> %llu key(s) invalidated -> "
              "%llu purges (%llu effective)\n",
              static_cast<unsigned long long>(ps.writes_seen),
              static_cast<unsigned long long>(ps.keys_invalidated),
              static_cast<unsigned long long>(ps.purges_scheduled),
              static_cast<unsigned long long>(ps.purges_effective));
  std::printf("purge propagation: %s\n",
              stack.pipeline()->propagation_latency_us().Summary().c_str());

  // The sketch entries expire once no cache anywhere can still hold a
  // stale copy.
  std::printf("\nfast-forward past the stale horizon...\n");
  stack.Advance(Duration::Minutes(15));
  SketchStatus(stack, "(horizon passed: keys released)");
  return 0;
}
