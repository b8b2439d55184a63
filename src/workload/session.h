// E-commerce browsing sessions — the shape of the paper's field traffic.
//
// A session is a first-order Markov walk over page types (home -> category
// -> product -> ... -> cart) with exponential think times and Zipfian
// product choice. Session structure matters for caching results because it
// concentrates repeat views (back-navigation, related products) inside a
// short window — exactly where browser caches shine.
#ifndef SPEEDKIT_WORKLOAD_SESSION_H_
#define SPEEDKIT_WORKLOAD_SESSION_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/sim_time.h"
#include "workload/catalog.h"
#include "workload/zipf.h"

namespace speedkit::workload {

enum class PageType { kHome, kCategory, kProduct, kCart };

struct PageView {
  PageType type = PageType::kHome;
  size_t product_rank = 0;  // for kProduct
  int category = 0;         // for kCategory (and the product's category)
  Duration think_time_before = Duration::Zero();
};

// The URL a page view fetches; none for a cart view, which the device
// handles without network traffic.
std::optional<std::string> PageViewUrl(const Catalog& catalog,
                                       const PageView& view);

// Only the skew is a setting: the experiments vary how concentrated
// product interest is (E3, E4), never the shape of a session.
struct SessionConfig {
  double product_skew = 0.9;  // Zipf exponent for product choice
};

class SessionGenerator {
 public:
  // Mean of the exponential think time before each page after the first.
  static constexpr Duration kMeanThinkTime = Duration::Seconds(8);
  // Hard stop against unbounded walks.
  static constexpr int kMaxPages = 30;
  // Chance that a visitor views one more page.
  static constexpr double kContinueProbability = 0.75;

  // Builds and owns a private popularity CDF — fine for one-off use, but
  // its tables take 12 B per product; fleets must not pay them per client.
  SessionGenerator(const Catalog* catalog, const SessionConfig& config,
                   Pcg32 rng);

  // Shares one immutable CDF across all generators of a run (the fleet
  // path: a million clients, one 24 KB table at 2,000 products).
  // `popularity` must outlive the generator and be built with
  // config.product_skew — sampling draws are identical to the owning
  // constructor's, so runs fingerprint the same either way.
  SessionGenerator(const Catalog* catalog, const SessionConfig& config,
                   const ZipfGenerator* popularity, Pcg32 rng);

  // One full session for one (anonymous) visitor.
  std::vector<PageView> NextSession();

 private:
  PageView NextPage(const PageView& current);

  const Catalog* catalog_;
  std::unique_ptr<const ZipfGenerator> owned_popularity_;  // null when shared
  const ZipfGenerator* product_popularity_;
  Pcg32 rng_;
};

}  // namespace speedkit::workload

#endif  // SPEEDKIT_WORKLOAD_SESSION_H_
