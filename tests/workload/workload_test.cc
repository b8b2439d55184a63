#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "workload/catalog.h"
#include "workload/session.h"
#include "workload/write_process.h"
#include "workload/zipf.h"

namespace speedkit::workload {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

// Folds one value into an order-sensitive stream digest.
uint64_t Fold(uint64_t digest, uint64_t value) {
  return Mix64(digest * 31 + value);
}

// The CDF exactly as ZipfGenerator builds it, for the binary search that
// RankOf must agree with.
std::vector<double> ReferenceCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

TEST(ZipfTest, UniformWhenSZero) {
  ZipfGenerator zipf(10, 0.0);
  for (size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.Pmf(k), 0.1, 1e-9);
  }
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfGenerator zipf(1000, 0.99);
  double sum = 0;
  for (size_t k = 0; k < 1000; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, SkewConcentratesMassOnHead) {
  ZipfGenerator zipf(10000, 0.99);
  // Rank-0 mass under Zipf(0.99, 10k) is ~10%.
  EXPECT_GT(zipf.Pmf(0), 0.05);
  EXPECT_LT(zipf.Pmf(9999), zipf.Pmf(0) / 1000);
}

TEST(ZipfTest, SamplesFollowPmf) {
  ZipfGenerator zipf(100, 0.8);
  Pcg32 rng(5);
  std::map<size_t, int> counts;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) counts[zipf.Sample(rng)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), zipf.Pmf(0), 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), zipf.Pmf(1), 0.01);
  EXPECT_NEAR(counts[50] / static_cast<double>(kDraws), zipf.Pmf(50), 0.005);
}

TEST(ZipfTest, SamplesAlwaysInRange) {
  ZipfGenerator zipf(7, 1.2);
  Pcg32 rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 7u);
}

TEST(ZipfTest, DegenerateSingleItem) {
  ZipfGenerator zipf(1, 0.9);
  Pcg32 rng(3);
  EXPECT_EQ(zipf.Sample(rng), 0u);
  EXPECT_DOUBLE_EQ(zipf.Pmf(0), 1.0);
}

// The guide table only picks where the search starts: for every u it must
// return the rank std::lower_bound finds, or every seeded run would move.
// Skews 50 and 400 end the CDF in a plateau of equal values.
TEST(ZipfTest, RankOfMatchesLowerBound) {
  for (size_t n : {1, 2, 7, 2000, 100000}) {
    for (double s : {0.0, 0.8, 0.9, 0.99, 50.0, 400.0}) {
      ZipfGenerator zipf(n, s);
      const std::vector<double> cdf = ReferenceCdf(n, s);
      std::vector<double> probes;
      auto probe_around = [&probes](double u) {
        for (double v : {std::nextafter(u, 0.0), u, std::nextafter(u, 2.0)}) {
          if (v >= 0.0 && v < 1.0) probes.push_back(v);
        }
      };
      for (double c : cdf) probe_around(c);
      for (size_t b = 0; b <= n; ++b) {
        probe_around(static_cast<double>(b) / static_cast<double>(n));
      }
      probes.push_back(0.0);
      probes.push_back(std::nextafter(1.0, 0.0));
      Pcg32 rng(n, static_cast<uint64_t>(s * 100));
      for (int i = 0; i < 100000; ++i) probes.push_back(rng.NextDouble());

      size_t mismatches = 0;
      for (double u : probes) {
        const size_t want = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const size_t got = zipf.RankOf(u);
        if (got != want && mismatches++ == 0) {
          ADD_FAILURE() << "n=" << n << " s=" << s << " u=" << u
                        << ": RankOf " << got << ", lower_bound " << want;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s << " over "
                                << probes.size() << " probes";
    }
  }
}

TEST(WriteProcessTest, InterArrivalMatchesRate) {
  WriteProcess writes(100, /*writes_per_sec=*/5.0, 0.8, Pcg32(7));
  SimTime t = SimTime::Origin();
  constexpr int kEvents = 20000;
  for (int i = 0; i < kEvents; ++i) {
    WriteEvent ev = writes.Next(t);
    EXPECT_GT(ev.at, t);
    EXPECT_LT(ev.object_rank, 100u);
    t = ev.at;
  }
  // 20000 events at 5/s should take ~4000 s.
  EXPECT_NEAR(t.seconds(), kEvents / 5.0, kEvents / 5.0 * 0.05);
}

TEST(WriteProcessTest, ZeroRateNeverFires) {
  WriteProcess writes(100, 0.0, 0.8, Pcg32(7));
  EXPECT_EQ(writes.Next(At(0)).at, SimTime::Max());
}

// Pinned from the binary-search sampler, so any change to which rank a
// draw maps to, or to how many draws a write takes, moves it.
TEST(WriteProcessTest, GoldenStreamDigest) {
  WriteProcess writes(2000, /*writes_per_sec=*/120.0, 0.9, Pcg32(1));
  uint64_t digest = 0;
  SimTime t = SimTime::Origin();
  for (int i = 0; i < 100000; ++i) {
    WriteEvent ev = writes.Next(t);
    digest = Fold(digest, static_cast<uint64_t>(ev.at.micros()));
    digest = Fold(digest, ev.object_rank);
    t = ev.at;
  }
  EXPECT_EQ(digest, 0xb25b02d7497a1eb8u);
}

TEST(WriteProcessTest, SkewTargetsHotObjects) {
  WriteProcess writes(1000, 10.0, 1.2, Pcg32(7));
  std::map<size_t, int> counts;
  SimTime t = SimTime::Origin();
  for (int i = 0; i < 10000; ++i) {
    WriteEvent ev = writes.Next(t);
    counts[ev.object_rank]++;
    t = ev.at;
  }
  EXPECT_GT(counts[0], counts.count(900) ? counts[900] * 10 : 100);
}

TEST(CatalogTest, DeterministicForSameSeed) {
  CatalogConfig config;
  config.num_products = 100;
  Catalog a(config, Pcg32(42));
  Catalog b(config, Pcg32(42));
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.CategoryOf(i), b.CategoryOf(i));
  }
}

TEST(CatalogTest, UrlsFollowKeyConvention) {
  CatalogConfig config;
  config.num_products = 10;
  Catalog catalog(config, Pcg32(1));
  EXPECT_EQ(catalog.ProductUrl(3),
            "https://shop.example.com/api/records/p3");
  EXPECT_EQ(catalog.CategoryUrl(2),
            "https://shop.example.com/api/queries/cat-2");
}

TEST(CatalogTest, PopulateInsertsAllProducts) {
  CatalogConfig config;
  config.num_products = 50;
  Catalog catalog(config, Pcg32(1));
  storage::ObjectStore store;
  catalog.Populate(&store, At(0));
  EXPECT_EQ(store.size(), 50u);
  auto r = store.Get("p7");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->GetField("category"), nullptr);
  EXPECT_NE(r->GetField("price"), nullptr);
}

TEST(CatalogTest, CategoryQueryMatchesItsProducts) {
  CatalogConfig config;
  config.num_products = 100;
  Catalog catalog(config, Pcg32(1));
  storage::ObjectStore store;
  catalog.Populate(&store, At(0));
  int category = catalog.CategoryOf(0);
  invalidation::Query q = catalog.CategoryQuery(category);
  auto r = store.Get("p0");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(q.Matches(*r));
}

TEST(CatalogTest, PriceUpdateChangesPriceWithinBand) {
  CatalogConfig config;
  config.num_products = 10;
  Catalog catalog(config, Pcg32(1));
  Pcg32 rng(9);
  auto fields = catalog.PriceUpdate(3, rng);
  ASSERT_TRUE(fields.count("price"));
  ASSERT_TRUE(fields.count("on_sale"));
  double price = std::get<double>(fields["price"]);
  EXPECT_GT(price, 0.0);
}

// An empty catalog would divide by zero at its first lookup.
TEST(CatalogTest, EmptyCatalogIsRejected) {
  CatalogConfig config;
  config.num_products = 0;
  try {
    Catalog catalog(config, Pcg32(1));
    FAIL() << "an empty catalog was built";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_products"), std::string::npos)
        << e.what();
  }
}

// A negative count would reach Pcg32::NextBounded as a huge bound.
TEST(CatalogTest, NonPositiveCategoryCountIsRejected) {
  for (int categories : {0, -1, -50}) {
    CatalogConfig config;
    config.num_products = 10;
    config.num_categories = categories;
    try {
      Catalog catalog(config, Pcg32(1));
      FAIL() << "a catalog with " << categories << " categories was built";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("num_categories"),
                std::string::npos)
          << e.what();
    }
  }
  CatalogConfig one;
  one.num_products = 10;
  one.num_categories = 1;
  EXPECT_EQ(Catalog(one, Pcg32(1)).CategoryOf(7), 0);
}

// Pinned from the binary-search sampler, like the write stream above.
TEST(SessionTest, GoldenStreamDigest) {
  CatalogConfig cconfig;
  cconfig.num_products = 2000;
  Catalog catalog(cconfig, Pcg32(1));
  SessionGenerator gen(&catalog, SessionConfig{}, Pcg32(5));
  uint64_t digest = 0;
  for (int i = 0; i < 10000; ++i) {
    std::vector<PageView> session = gen.NextSession();
    digest = Fold(digest, session.size());
    for (const PageView& view : session) {
      digest = Fold(digest, static_cast<uint64_t>(view.type));
      digest = Fold(digest, view.product_rank);
      digest = Fold(digest, static_cast<uint64_t>(view.category));
      digest = Fold(digest,
                    static_cast<uint64_t>(view.think_time_before.micros()));
    }
  }
  EXPECT_EQ(digest, 0x7429701c8b41f60eu);
}

TEST(SessionTest, SessionsAreNonEmptyAndBounded) {
  CatalogConfig cconfig;
  cconfig.num_products = 100;
  Catalog catalog(cconfig, Pcg32(1));
  SessionGenerator gen(&catalog, SessionConfig{}, Pcg32(5));
  for (int i = 0; i < 200; ++i) {
    auto session = gen.NextSession();
    ASSERT_GE(session.size(), 1u);
    ASSERT_LE(session.size(), 30u);
    EXPECT_EQ(session[0].think_time_before, Duration::Zero());
  }
}

TEST(SessionTest, ProductViewsCarryValidRanksAndCategories) {
  CatalogConfig cconfig;
  cconfig.num_products = 100;
  Catalog catalog(cconfig, Pcg32(1));
  SessionGenerator gen(&catalog, SessionConfig{}, Pcg32(5));
  for (int i = 0; i < 100; ++i) {
    for (const PageView& view : gen.NextSession()) {
      if (view.type == PageType::kProduct) {
        EXPECT_LT(view.product_rank, 100u);
        EXPECT_EQ(view.category, catalog.CategoryOf(view.product_rank));
      }
    }
  }
}

TEST(SessionTest, CartEndsSession) {
  CatalogConfig cconfig;
  cconfig.num_products = 100;
  Catalog catalog(cconfig, Pcg32(1));
  SessionGenerator gen(&catalog, SessionConfig{}, Pcg32(5));
  for (int i = 0; i < 200; ++i) {
    auto session = gen.NextSession();
    for (size_t j = 0; j < session.size(); ++j) {
      if (session[j].type == PageType::kCart) {
        EXPECT_EQ(j, session.size() - 1);
      }
    }
  }
}

TEST(SessionTest, ThinkTimesArePositiveAfterFirstPage) {
  CatalogConfig cconfig;
  cconfig.num_products = 100;
  Catalog catalog(cconfig, Pcg32(1));
  SessionGenerator gen(&catalog, SessionConfig{}, Pcg32(5));
  for (int i = 0; i < 50; ++i) {
    auto session = gen.NextSession();
    for (size_t j = 1; j < session.size(); ++j) {
      EXPECT_GT(session[j].think_time_before, Duration::Zero());
    }
  }
}

}  // namespace
}  // namespace speedkit::workload
