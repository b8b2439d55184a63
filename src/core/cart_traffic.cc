#include "core/cart_traffic.h"

#include <algorithm>
#include <string>

namespace speedkit::core {
namespace {

// Mean think time between one client's checkouts (exponential).
constexpr Duration kMeanTxnGap = Duration::Seconds(20);
// Zipf exponents of cart picks and of catalog writes: the browsing
// workload's defaults (SessionConfig, TrafficConfig).
constexpr double kProductSkew = 0.9;
constexpr double kWriteSkew = 0.8;

}  // namespace

CartTrafficSimulation::CartTrafficSimulation(SpeedKitStack* stack,
                                             const workload::Catalog* catalog,
                                             const CartTrafficConfig& config)
    : stack_(stack),
      catalog_(catalog),
      config_(config),
      end_(stack->clock().Now() + config.duration),
      popularity_(catalog->num_products(), kProductSkew),
      pool_(stack->MakeClientPool(proxy::ClientPoolConfig{})),
      writes_(catalog->num_products(), config.writes_per_sec, kWriteSkew,
              stack->ForkRng(1000)),
      rng_(stack->ForkRng(2000)) {
  const proxy::ProxyConfig pc = stack_->DefaultProxyConfig();
  clients_.reserve(config_.num_clients);
  txn_rngs_.reserve(config_.num_clients);
  for (size_t i = 0; i < config_.num_clients; ++i) {
    // Sharded fleets simulate only the clients their edge owns; salts stay
    // keyed by the GLOBAL client index so a client's transaction stream is
    // a function of (shard stream, id), not of shard population.
    uint64_t client_id = i + 1;
    if (!stack_->OwnsClient(client_id)) continue;
    clients_.push_back(pool_->MakeClient(pc, client_id));
    txn_rngs_.push_back(stack_->ForkRng(4000 + i));
  }
}

CartTrafficResult CartTrafficSimulation::Run() {
  SimTime start = stack_->clock().Now();
  // Stagger first checkouts across the first gap so clients don't thunder
  // in lock-step.
  for (size_t i = 0; i < clients_.size(); ++i) {
    ScheduleTxn(i, start + Duration::Seconds(
                              rng_.Uniform(0.0, kMeanTxnGap.seconds())));
  }
  ScheduleNextWrite(start);
  stack_->AdvanceTo(end_);
  result_.proxies += pool_->stats();
  return result_;
}

void CartTrafficSimulation::ScheduleTxn(size_t client_index, SimTime at) {
  if (at >= end_) return;
  stack_->events().At(at, [this, client_index]() {
    ExecuteTxn(client_index);
    Duration gap = Duration::Seconds(
        rng_.Exponential(1.0 / kMeanTxnGap.seconds()));
    ScheduleTxn(client_index, stack_->clock().Now() + gap);
  });
}

void CartTrafficSimulation::ScheduleNextWrite(SimTime from) {
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

void CartTrafficSimulation::ExecuteTxn(size_t client_index) {
  Pcg32& rng = txn_rngs_[client_index];
  // K distinct Zipf picks: the cart's lines. Rejection over the popularity
  // CDF, with a linear fallback so tiny catalogs still terminate.
  std::vector<size_t> ranks;
  size_t want = std::min(config_.keys_per_txn, catalog_->num_products());
  for (size_t attempt = 0; ranks.size() < want && attempt < 16 * want;
       ++attempt) {
    size_t rank = popularity_.Sample(rng);
    if (std::find(ranks.begin(), ranks.end(), rank) == ranks.end()) {
      ranks.push_back(rank);
    }
  }
  for (size_t rank = 0; ranks.size() < want; ++rank) {
    if (std::find(ranks.begin(), ranks.end(), rank) == ranks.end()) {
      ranks.push_back(rank);
    }
  }
  std::vector<std::string> urls;
  urls.reserve(ranks.size());
  for (size_t rank : ranks) urls.push_back(catalog_->ProductUrl(rank));

  proxy::ClientProxy& client = *clients_[client_index];
  proxy::TxnResult txn = client.FetchTxn(urls);
  result_.txns_attempted++;
  result_.txn_retries += static_cast<uint64_t>(txn.retries);
  if (txn.aborted) {
    result_.txns_aborted++;
    return;
  }
  result_.txns_committed++;
  result_.txn_latency_us.Add(txn.latency.micros());

  // Audit the committed read set against the version authority. Reads are
  // also dated individually so the staleness instrument (E2's numbers)
  // covers cart traffic too.
  std::vector<coherence::ReadVersion> reads;
  reads.reserve(txn.reads.size());
  SimTime now = stack_->clock().Now();
  for (size_t i = 0; i < txn.reads.size(); ++i) {
    const proxy::FetchResult& r = txn.reads[i];
    if (!r.response.ok() || r.response.object_version == 0) continue;
    stack_->staleness().RecordRead(urls[i], r.response.object_version, now);
    reads.push_back({urls[i], r.response.object_version});
  }
  coherence::SnapshotCheck check = stack_->staleness().CheckSnapshot(reads);
  if (!check.consistent) result_.anomalies++;
  if (check.clamped) result_.anomaly_checks_clamped++;
}

}  // namespace speedkit::core
