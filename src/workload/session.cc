#include "workload/session.h"

namespace speedkit::workload {

std::optional<std::string> PageViewUrl(const Catalog& catalog,
                                       const PageView& view) {
  switch (view.type) {
    case PageType::kHome: return "https://shop.example.com/pages/home";
    case PageType::kCategory: return catalog.CategoryUrl(view.category);
    case PageType::kProduct: return catalog.ProductUrl(view.product_rank);
    case PageType::kCart: break;
  }
  return std::nullopt;
}

SessionGenerator::SessionGenerator(const Catalog* catalog,
                                   const SessionConfig& config, Pcg32 rng)
    : catalog_(catalog),
      owned_popularity_(std::make_unique<ZipfGenerator>(
          catalog->num_products(), config.product_skew)),
      product_popularity_(owned_popularity_.get()),
      rng_(rng) {}

SessionGenerator::SessionGenerator(const Catalog* catalog,
                                   const SessionConfig& /*config*/,
                                   const ZipfGenerator* popularity, Pcg32 rng)
    : catalog_(catalog),
      product_popularity_(popularity),
      rng_(rng) {}

std::vector<PageView> SessionGenerator::NextSession() {
  std::vector<PageView> pages;
  PageView current;
  // Sessions open on the homepage (70%) or deep-link to a product (30%),
  // mirroring direct vs. search/ad entry.
  if (rng_.WithProbability(0.7)) {
    current.type = PageType::kHome;
  } else {
    current.type = PageType::kProduct;
    current.product_rank = product_popularity_->Sample(rng_);
    current.category = catalog_->CategoryOf(current.product_rank);
  }
  current.think_time_before = Duration::Zero();
  pages.push_back(current);

  while (static_cast<int>(pages.size()) < kMaxPages &&
         rng_.WithProbability(kContinueProbability)) {
    PageView next = NextPage(pages.back());
    next.think_time_before = Duration::Seconds(
        rng_.Exponential(1.0 / kMeanThinkTime.seconds()));
    pages.push_back(next);
    if (next.type == PageType::kCart) break;  // checkout ends the session
  }
  return pages;
}

PageView SessionGenerator::NextPage(const PageView& current) {
  PageView next;
  double u = rng_.NextDouble();
  switch (current.type) {
    case PageType::kHome:
      if (u < 0.7) {
        next.type = PageType::kCategory;
        next.category =
            static_cast<int>(rng_.NextBounded(catalog_->num_categories()));
      } else {
        next.type = PageType::kProduct;
        next.product_rank = product_popularity_->Sample(rng_);
        next.category = catalog_->CategoryOf(next.product_rank);
      }
      break;
    case PageType::kCategory:
      if (u < 0.75) {
        // Pick within the current category: resample until the category
        // matches (bounded tries keep determinism cheap).
        next.type = PageType::kProduct;
        next.product_rank = product_popularity_->Sample(rng_);
        for (int tries = 0;
             tries < 8 && catalog_->CategoryOf(next.product_rank) != current.category;
             ++tries) {
          next.product_rank = product_popularity_->Sample(rng_);
        }
        next.category = catalog_->CategoryOf(next.product_rank);
      } else {
        next.type = PageType::kCategory;
        next.category =
            static_cast<int>(rng_.NextBounded(catalog_->num_categories()));
      }
      break;
    case PageType::kProduct:
      if (u < 0.45) {
        next.type = PageType::kProduct;  // related product
        next.product_rank = product_popularity_->Sample(rng_);
        next.category = catalog_->CategoryOf(next.product_rank);
      } else if (u < 0.75) {
        next.type = PageType::kCategory;  // back to the listing
        next.category = current.category;
      } else {
        next.type = PageType::kCart;
      }
      break;
    case PageType::kCart:
      next.type = PageType::kHome;
      break;
  }
  return next;
}

}  // namespace speedkit::workload
