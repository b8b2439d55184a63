// End-to-end multi-key transaction behavior, mode by mode, against a real
// stack: Δ-atomic snapshots at the txn instant, serializable
// validate/retry/abort, fixed-TTL anomalies — plus determinism of the E18
// cart workload (same seed, same numbers, at any thread count).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/workload_runner.h"
#include "core/cart_traffic.h"
#include "core/fleet.h"
#include "core/stack.h"
#include "proxy/client_proxy.h"
#include "workload/catalog.h"

namespace speedkit::core {
namespace {

// One stack over a small catalog, settled past the population writes so
// tests start from a clean sketch/version picture.
struct World {
  explicit World(coherence::CoherenceMode mode, int max_txn_retries = 2) {
    core::StackConfig config;
    config.seed = 42;
    config.coherence.mode = mode;
    config.coherence.delta = Duration::Seconds(10);
    config.coherence.max_txn_retries = max_txn_retries;
    stack = std::make_unique<SpeedKitStack>(config);

    workload::CatalogConfig ccfg;
    ccfg.num_products = 50;
    ccfg.num_categories = 5;
    catalog = std::make_unique<workload::Catalog>(ccfg, Pcg32(1));
    catalog->Populate(&stack->store(), stack->clock().Now());
    stack->Advance(Duration::Seconds(5));
    write_rng = stack->ForkRng(0x77);
  }

  // Bumps product `rank` to its next version through the object store, so
  // the write listeners date it and the pipeline invalidates it.
  void Write(size_t rank) {
    stack->store().Update(catalog->ProductId(rank),
                          catalog->PriceUpdate(rank, write_rng),
                          stack->clock().Now());
  }

  std::unique_ptr<SpeedKitStack> stack;
  std::unique_ptr<workload::Catalog> catalog;
  Pcg32 write_rng{0};
};

// Audits a committed transaction exactly the way the cart workload does.
coherence::SnapshotCheck Audit(World& w, const std::vector<std::string>& urls,
                               const proxy::TxnResult& txn) {
  std::vector<coherence::ReadVersion> reads;
  for (size_t i = 0; i < txn.reads.size(); ++i) {
    const proxy::FetchResult& r = txn.reads[i];
    if (!r.response.ok() || r.response.object_version == 0) continue;
    reads.push_back({urls[i], r.response.object_version});
  }
  return w.stack->staleness().CheckSnapshot(reads);
}

TEST(CoherenceTxnTest, DeltaAtomicTxnSnapshotsAtTheTransactionInstant) {
  World w(coherence::CoherenceMode::kDeltaAtomic);
  auto client = w.stack->MakeClient(w.stack->DefaultProxyConfig(), 1);
  std::vector<std::string> urls = {w.catalog->ProductUrl(0),
                                   w.catalog->ProductUrl(1)};
  // Warm both keys into the browser cache, then change one underneath.
  ASSERT_TRUE(client->Fetch(urls[0]).response.ok());
  ASSERT_TRUE(client->Fetch(urls[1]).response.ok());
  uint64_t old_version = client->Fetch(urls[0]).response.object_version;
  w.Write(0);
  w.stack->Advance(Duration::Seconds(2));  // purge + sketch flag propagate

  proxy::TxnResult txn = client->FetchTxn(urls);
  ASSERT_FALSE(txn.aborted);
  // The txn-instant sketch snapshot flags the changed key: the read
  // bypassed the (fresh-by-TTL) browser copy and fetched the new version.
  EXPECT_GT(txn.reads[0].response.object_version, old_version);
  EXPECT_TRUE(txn.reads[0].sketch_bypass);
  coherence::SnapshotCheck check = Audit(w, urls, txn);
  EXPECT_TRUE(check.consistent);
  // Δ-atomic never spends validation round trips.
  EXPECT_EQ(txn.retries, 0);
}

TEST(CoherenceTxnTest, SerializableRetriesStaleReadThenCommits) {
  World w(coherence::CoherenceMode::kSerializable);
  auto client = w.stack->MakeClient(w.stack->DefaultProxyConfig(), 1);
  std::vector<std::string> urls = {w.catalog->ProductUrl(0),
                                   w.catalog->ProductUrl(1)};
  ASSERT_TRUE(client->Fetch(urls[0]).response.ok());
  ASSERT_TRUE(client->Fetch(urls[1]).response.ok());
  uint64_t old_version = client->Fetch(urls[0]).response.object_version;
  w.Write(0);
  w.stack->Advance(Duration::Seconds(2));

  // Precondition for the retry: the stale copy really is still fresh by
  // TTL in the browser cache (nothing warned this client).
  proxy::FetchResult stale_probe = client->Fetch(urls[0]);
  ASSERT_EQ(stale_probe.source, proxy::ServedFrom::kBrowserCache);
  ASSERT_EQ(stale_probe.response.object_version, old_version);

  proxy::TxnResult txn = client->FetchTxn(urls);
  ASSERT_FALSE(txn.aborted);
  // Validation flagged the stale member; one re-fetch round converged.
  EXPECT_EQ(txn.retries, 1);
  EXPECT_GT(txn.reads[0].response.object_version, old_version);
  EXPECT_TRUE(Audit(w, urls, txn).consistent);
  EXPECT_GE(client->stats().txn_validations, 2u);  // failed + passing round
}

TEST(CoherenceTxnTest, SerializableAbortsWhenRetryBudgetExhausted) {
  World w(coherence::CoherenceMode::kSerializable, /*max_txn_retries=*/0);
  auto client = w.stack->MakeClient(w.stack->DefaultProxyConfig(), 1);
  std::vector<std::string> urls = {w.catalog->ProductUrl(0),
                                   w.catalog->ProductUrl(1)};
  ASSERT_TRUE(client->Fetch(urls[0]).response.ok());
  ASSERT_TRUE(client->Fetch(urls[1]).response.ok());
  w.Write(0);
  w.stack->Advance(Duration::Seconds(2));
  ASSERT_EQ(client->Fetch(urls[0]).source, proxy::ServedFrom::kBrowserCache);

  proxy::TxnResult txn = client->FetchTxn(urls);
  // Zero retries allowed: the first mismatched validation is fatal.
  EXPECT_TRUE(txn.aborted);
  EXPECT_EQ(txn.retries, 0);
}

TEST(CoherenceTxnTest, SerializableAbortsWithoutAReachableAuthority) {
  World w(coherence::CoherenceMode::kSerializable);
  auto client = w.stack->MakeClient(w.stack->DefaultProxyConfig(), 1);
  std::vector<std::string> urls = {w.catalog->ProductUrl(0),
                                   w.catalog->ProductUrl(1)};
  ASSERT_TRUE(client->Fetch(urls[0]).response.ok());
  ASSERT_TRUE(client->Fetch(urls[1]).response.ok());
  w.stack->origin().set_available(false);

  // Every member read serves fine from the browser cache, but the commit
  // cannot be certified against a dead origin: abort, never a blind commit.
  proxy::TxnResult txn = client->FetchTxn(urls);
  EXPECT_TRUE(txn.aborted);
  EXPECT_TRUE(txn.reads[0].response.ok());
}

TEST(CoherenceTxnTest, FixedTtlCommitsAnInconsistentSnapshot) {
  World w(coherence::CoherenceMode::kFixedTtl);
  auto client = w.stack->MakeClient(w.stack->DefaultProxyConfig(), 1);
  std::vector<std::string> urls = {w.catalog->ProductUrl(0),
                                   w.catalog->ProductUrl(1)};
  // Warm only the first key, then write both in order: the cached copy of
  // key 0 dies before key 1's new version is born, so reading stale-0 and
  // current-1 together admits no common instant.
  ASSERT_TRUE(client->Fetch(urls[0]).response.ok());
  uint64_t old_version = client->Fetch(urls[0]).response.object_version;
  w.Write(0);
  w.stack->Advance(Duration::Seconds(1));
  w.Write(1);
  w.stack->Advance(Duration::Seconds(1));

  proxy::TxnResult txn = client->FetchTxn(urls);
  // Fixed TTL neither refreshes nor validates: the stale read commits.
  ASSERT_FALSE(txn.aborted);
  EXPECT_EQ(txn.retries, 0);
  EXPECT_EQ(txn.reads[0].response.object_version, old_version);
  coherence::SnapshotCheck check = Audit(w, urls, txn);
  EXPECT_FALSE(check.consistent);  // the E18 anomaly, reproduced exactly
  EXPECT_EQ(client->stats().txn_validations, 0u);
}

CartTrafficConfig SmallCartConfig() {
  CartTrafficConfig cart;
  cart.num_clients = 8;
  cart.duration = Duration::Minutes(2);
  cart.keys_per_txn = 3;
  cart.writes_per_sec = 4.0;
  return cart;
}

CartTrafficResult RunCart(coherence::CoherenceMode mode) {
  core::StackConfig config;
  config.seed = 7;
  config.coherence.mode = mode;
  config.coherence.delta = Duration::Seconds(10);
  SpeedKitStack stack(config);
  workload::CatalogConfig ccfg;
  ccfg.num_products = 200;
  ccfg.num_categories = 10;
  workload::Catalog catalog(ccfg, Pcg32(1));
  catalog.Populate(&stack.store(), stack.clock().Now());
  stack.Advance(Duration::Seconds(5));
  CartTrafficSimulation sim(&stack, &catalog, SmallCartConfig());
  return sim.Run();
}

void ExpectSameCartNumbers(const CartTrafficResult& a,
                           const CartTrafficResult& b) {
  EXPECT_EQ(a.txns_attempted, b.txns_attempted);
  EXPECT_EQ(a.txns_committed, b.txns_committed);
  EXPECT_EQ(a.txns_aborted, b.txns_aborted);
  EXPECT_EQ(a.txn_retries, b.txn_retries);
  EXPECT_EQ(a.anomalies, b.anomalies);
  EXPECT_EQ(a.anomaly_checks_clamped, b.anomaly_checks_clamped);
  EXPECT_EQ(a.writes_applied, b.writes_applied);
  EXPECT_EQ(a.txn_latency_us.Fingerprint(), b.txn_latency_us.Fingerprint());
  EXPECT_EQ(a.proxies.requests, b.proxies.requests);
}

TEST(CartTrafficTest, SameSeedSameNumbersInEveryMode) {
  for (coherence::CoherenceMode mode :
       {coherence::CoherenceMode::kDeltaAtomic,
        coherence::CoherenceMode::kSerializable,
        coherence::CoherenceMode::kFixedTtl}) {
    CartTrafficResult first = RunCart(mode);
    CartTrafficResult second = RunCart(mode);
    ASSERT_GT(first.txns_attempted, 0u);
    ExpectSameCartNumbers(first, second);
  }
}

// The coherent modes earn their keep on this workload; the baseline shows
// why the tier exists. (fig_coherence gates the same three facts at E18
// scale; this is the fast in-tree version.)
TEST(CartTrafficTest, CoherentModesCommitCleanSnapshotsFixedTtlDoesNot) {
  CartTrafficResult delta = RunCart(coherence::CoherenceMode::kDeltaAtomic);
  CartTrafficResult serial = RunCart(coherence::CoherenceMode::kSerializable);
  CartTrafficResult fixed = RunCart(coherence::CoherenceMode::kFixedTtl);
  ASSERT_GT(delta.txns_committed, 0u);
  ASSERT_GT(serial.txns_committed, 0u);
  ASSERT_GT(fixed.txns_committed, 0u);
  EXPECT_EQ(delta.anomalies, 0u);
  EXPECT_EQ(serial.anomalies, 0u);
  EXPECT_GT(fixed.anomalies, 0u);
}

// A sharded fleet runs one cart simulation per shard; no shard's numbers
// may depend on how many worker threads executed the shards.
TEST(CartTrafficTest, ShardedCartIsThreadCountInvariant) {
  auto run_fleet = [](int run_threads) {
    core::StackConfig config;
    config.seed = 7;
    config.cdn_edges = 4;
    config.shards = 4;
    config.coherence.delta = Duration::Seconds(10);
    workload::CatalogConfig ccfg;
    ccfg.num_products = 200;
    ccfg.num_categories = 10;
    workload::Catalog catalog(ccfg, Pcg32(1));
    CartTrafficConfig cart = SmallCartConfig();
    cart.num_clients = 24;

    ShardedFleet fleet(config);
    std::vector<CartTrafficResult> parts(
        static_cast<size_t>(fleet.shards()));
    ForEachShard(fleet.shards(), run_threads, [&](int s) {
      SpeedKitStack& shard = fleet.shard(s);
      catalog.Populate(&shard.store(), shard.clock().Now());
      shard.Advance(Duration::Seconds(5));
      CartTrafficSimulation sim(&shard, &catalog, cart);
      parts[static_cast<size_t>(s)] = sim.Run();
    });
    return parts;
  };
  std::vector<CartTrafficResult> serial = run_fleet(1);
  std::vector<CartTrafficResult> parallel = run_fleet(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t s = 0; s < serial.size(); ++s) {
    ASSERT_GT(serial[s].txns_attempted, 0u) << "shard " << s;
    ExpectSameCartNumbers(serial[s], parallel[s]);
  }
}

}  // namespace
}  // namespace speedkit::core
