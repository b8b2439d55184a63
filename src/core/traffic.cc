#include "core/traffic.h"

#include <optional>
#include <string>

namespace speedkit::core {
namespace {

// Mean of the exponential idle gap between one client's sessions.
constexpr Duration kMeanSessionGap = Duration::Seconds(45);
// Cadence of the ClientPool::SpillIdle sweeps: half the pool's idle
// threshold, so a client is frozen at most 30 s after it becomes a spill
// candidate.
constexpr Duration kSpillSweepInterval = Duration::Seconds(30);

}  // namespace

void TrafficResult::Merge(const TrafficResult& other) {
  api_latency_us.Merge(other.api_latency_us);
  all_latency_us.Merge(other.all_latency_us);
  page_views += other.page_views;
  writes_applied += other.writes_applied;
  proxies += other.proxies;
  hit_ratio_timeline.Merge(other.hit_ratio_timeline);
  latency_ms_timeline.Merge(other.latency_ms_timeline);
  stale_timeline.Merge(other.stale_timeline);
}

double TrafficResult::BrowserHitRatio() const {
  return proxies.requests == 0
             ? 0.0
             : static_cast<double>(proxies.browser_hits +
                                   proxies.swr_serves +
                                   proxies.offline_serves) /
                   static_cast<double>(proxies.requests);
}

double TrafficResult::EdgeHitRatio() const {
  return proxies.requests == 0
             ? 0.0
             : static_cast<double>(proxies.edge_hits) /
                   static_cast<double>(proxies.requests);
}

double TrafficResult::OriginRatio() const {
  return proxies.requests == 0
             ? 0.0
             : static_cast<double>(proxies.origin_fetches) /
                   static_cast<double>(proxies.requests);
}

TrafficSimulation::TrafficSimulation(SpeedKitStack* stack,
                                     const workload::Catalog* catalog,
                                     const TrafficConfig& config)
    : stack_(stack),
      catalog_(catalog),
      config_(config),
      end_(stack->clock().Now() + config.duration),
      popularity_(catalog->num_products(), config.session.product_skew),
      pool_(stack->MakeClientPool(config.pool)),
      writes_(catalog->num_products(), config.writes_per_sec,
              config.write_skew, stack->ForkRng(1000 + config.seed_salt)),
      rng_(stack->ForkRng(2000 + config.seed_salt)) {
  proxy::ProxyConfig pc = config_.proxy_config != nullptr
                              ? *config_.proxy_config
                              : stack_->DefaultProxyConfig();
  clients_.reserve(config_.num_clients);
  session_gens_.reserve(config_.num_clients);
  for (size_t i = 0; i < config_.num_clients; ++i) {
    // In a sharded fleet each shard simulates only the clients whose edge
    // it owns; salts stay keyed by the GLOBAL client index so a client's
    // session stream is a function of (shard stream, id), not of how many
    // clients happen to share its shard.
    uint64_t client_id = i + 1;
    if (!stack_->OwnsClient(client_id)) continue;
    clients_.push_back(pool_->MakeClient(pc, client_id));
    session_gens_.emplace_back(catalog_, config_.session, &popularity_,
                               stack_->ForkRng(3000 + i));
  }
}

TrafficResult TrafficSimulation::Run() {
  SimTime start = stack_->clock().Now();
  // Stagger session starts across the first minute so clients don't
  // thunder in lock-step.
  for (size_t i = 0; i < clients_.size(); ++i) {
    ScheduleSession(i, start + Duration::Seconds(rng_.Uniform(0.0, 60.0)));
  }
  ScheduleNextWrite(start);
  // Cold-client spill sweeps (no-ops unless the pool enables spill for
  // this fleet size). Scheduled last so the relative order of all real
  // traffic events is untouched.
  if (pool_->spill_enabled()) {
    ScheduleSpillSweep(start + kSpillSweepInterval);
  }
  stack_->AdvanceTo(end_);

  // Every pooled client recorded into the shared sink; one add replaces
  // the old per-client summation (bit-identical: counter increments are
  // unchanged and integer-valued histogram sums are exact).
  result_.proxies += pool_->stats();
  return result_;
}

void TrafficSimulation::ScheduleSession(size_t client_index, SimTime at) {
  if (at >= end_) return;
  stack_->events().At(at, [this, client_index]() {
    std::vector<workload::PageView> pages =
        session_gens_[client_index].NextSession();
    SimTime t = stack_->clock().Now();
    for (const workload::PageView& view : pages) {
      t = t + view.think_time_before;
      if (t >= end_) return;
      workload::PageView view_copy = view;
      stack_->events().At(t, [this, client_index, view_copy]() {
        ExecutePageView(client_index, view_copy);
      });
    }
    // Next session after the last page view plus an idle gap.
    Duration gap = Duration::Seconds(
        rng_.Exponential(1.0 / kMeanSessionGap.seconds()));
    ScheduleSession(client_index, t + gap);
  });
}

void TrafficSimulation::ScheduleSpillSweep(SimTime at) {
  if (at >= end_) return;
  stack_->events().At(at, [this, at]() {
    pool_->SpillIdle(stack_->clock().Now());
    ScheduleSpillSweep(at + kSpillSweepInterval);
  });
}

void TrafficSimulation::ScheduleNextWrite(SimTime from) {
  workload::WriteEvent ev = writes_.Next(from);
  if (ev.at >= end_) return;
  stack_->events().At(ev.at, [this, ev]() {
    Pcg32 wrng = stack_->ForkRng(0x77);
    stack_->store().Update(catalog_->ProductId(ev.object_rank),
                           catalog_->PriceUpdate(ev.object_rank, wrng),
                           stack_->clock().Now());
    result_.writes_applied++;
    ScheduleNextWrite(stack_->clock().Now());
  });
}

void TrafficSimulation::ExecutePageView(size_t client_index,
                                        const workload::PageView& view) {
  std::optional<std::string> url = workload::PageViewUrl(*catalog_, view);
  if (!url.has_value()) return;  // a cart view makes no network traffic
  const bool track_staleness = view.type != workload::PageType::kHome;
  proxy::FetchResult r = clients_[client_index]->Fetch(*url);
  result_.page_views++;
  result_.all_latency_us.Add(r.latency.micros());
  bool cache_hit = r.source == proxy::ServedFrom::kBrowserCache ||
                   r.source == proxy::ServedFrom::kEdgeCache ||
                   r.source == proxy::ServedFrom::kOfflineCache;
  result_.hit_ratio_timeline.Add(stack_->clock().Now(), cache_hit ? 1.0 : 0.0);
  result_.latency_ms_timeline.Add(stack_->clock().Now(), r.latency.millis());
  if (track_staleness) {
    result_.api_latency_us.Add(r.latency.micros());
    if (r.response.ok() && r.response.object_version > 0) {
      // Offline serves are the availability-over-freshness trade the
      // proxy makes deliberately; they must not count as Δ-violations.
      bool excused = r.source == proxy::ServedFrom::kOfflineCache;
      Duration staleness = stack_->staleness().RecordRead(
          *url, r.response.object_version, stack_->clock().Now(), excused);
      result_.stale_timeline.Add(stack_->clock().Now(),
                                 staleness > Duration::Zero() ? 1.0 : 0.0);
    }
  }
}

}  // namespace speedkit::core
