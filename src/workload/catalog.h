// Synthetic e-commerce catalog — the data the simulated shop serves.
//
// Products carry the fields the invalidation pipeline's query predicates
// range over (category, price, stock, on_sale). URLs follow the same key
// convention the origin and pipeline share, so a price update on product
// p42 invalidates both its detail page and the "category == 7" listing
// that contains it.
#ifndef SPEEDKIT_WORKLOAD_CATALOG_H_
#define SPEEDKIT_WORKLOAD_CATALOG_H_

#include <cstddef>
#include <map>
#include <string>

#include "common/random.h"
#include "common/sim_time.h"
#include "invalidation/predicate.h"
#include "storage/object_store.h"

namespace speedkit::workload {

struct CatalogConfig {
  size_t num_products = 10000;
  int num_categories = 50;
};

class Catalog {
 public:
  // Every product lookup wraps its rank modulo the catalog size, and every
  // product draws its category below num_categories, so both must be
  // positive: throws std::invalid_argument naming the field otherwise.
  Catalog(const CatalogConfig& config, Pcg32 rng);

  size_t num_products() const { return config_.num_products; }
  int num_categories() const { return config_.num_categories; }

  std::string ProductId(size_t rank) const;
  // Cache key / URL of the product detail resource (matches
  // invalidation::RecordCacheKey).
  std::string ProductUrl(size_t rank) const;

  int CategoryOf(size_t rank) const;
  std::string CategoryQueryId(int category) const;
  std::string CategoryUrl(int category) const;

  // The listing query for a category: category == c.
  invalidation::Query CategoryQuery(int category) const;

  // Inserts all products into `store`.
  void Populate(storage::ObjectStore* store, SimTime now) const;

  // Field images for writes.
  std::map<std::string, storage::FieldValue> InitialFields(size_t rank) const;
  std::map<std::string, storage::FieldValue> PriceUpdate(size_t rank,
                                                         Pcg32& rng) const;

 private:
  CatalogConfig config_;
  std::vector<int> categories_;    // rank -> category
  std::vector<double> base_price_;  // rank -> launch price
};

}  // namespace speedkit::workload

#endif  // SPEEDKIT_WORKLOAD_CATALOG_H_
