#include "workload/catalog.h"

#include <stdexcept>

#include "invalidation/pipeline.h"

namespace speedkit::workload {
namespace {

// Launch prices are uniform over this band; PriceUpdate keeps each price
// within ±20% of its launch price.
constexpr double kMinPrice = 5.0;
constexpr double kMaxPrice = 500.0;

}  // namespace

Catalog::Catalog(const CatalogConfig& config, Pcg32 rng) : config_(config) {
  if (config_.num_products == 0) {
    throw std::invalid_argument(
        "workload::Catalog: num_products must be at least 1");
  }
  if (config_.num_categories < 1) {
    throw std::invalid_argument(
        "workload::Catalog: num_categories must be at least 1");
  }
  categories_.reserve(config_.num_products);
  base_price_.reserve(config_.num_products);
  for (size_t i = 0; i < config_.num_products; ++i) {
    categories_.push_back(
        static_cast<int>(rng.NextBounded(config_.num_categories)));
    base_price_.push_back(rng.Uniform(kMinPrice, kMaxPrice));
  }
}

std::string Catalog::ProductId(size_t rank) const {
  std::string id = "p";
  id += std::to_string(rank);
  return id;
}

std::string Catalog::ProductUrl(size_t rank) const {
  return invalidation::RecordCacheKey(ProductId(rank));
}

int Catalog::CategoryOf(size_t rank) const {
  return categories_[rank % categories_.size()];
}

std::string Catalog::CategoryQueryId(int category) const {
  return "cat-" + std::to_string(category);
}

std::string Catalog::CategoryUrl(int category) const {
  return invalidation::QueryCacheKey(CategoryQueryId(category));
}

invalidation::Query Catalog::CategoryQuery(int category) const {
  invalidation::Query q;
  q.id = CategoryQueryId(category);
  q.conditions.push_back(invalidation::Condition{
      "category", invalidation::Op::kEq, static_cast<int64_t>(category)});
  return q;
}

void Catalog::Populate(storage::ObjectStore* store, SimTime now) const {
  for (size_t i = 0; i < config_.num_products; ++i) {
    store->Put(ProductId(i), InitialFields(i), now);
  }
}

std::map<std::string, storage::FieldValue> Catalog::InitialFields(
    size_t rank) const {
  return {
      {"category", static_cast<int64_t>(CategoryOf(rank))},
      {"price", base_price_[rank % base_price_.size()]},
      {"stock", static_cast<int64_t>(100)},
      {"on_sale", false},
      {"title", "Product " + std::to_string(rank)},
  };
}

std::map<std::string, storage::FieldValue> Catalog::PriceUpdate(
    size_t rank, Pcg32& rng) const {
  double base = base_price_[rank % base_price_.size()];
  double price = base * rng.Uniform(0.8, 1.2);
  return {
      {"price", price},
      {"on_sale", price < base},
      {"stock", static_cast<int64_t>(rng.NextBounded(200))},
  };
}

}  // namespace speedkit::workload
