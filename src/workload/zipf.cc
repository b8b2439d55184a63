#include "workload/zipf.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace speedkit::workload {

ZipfGenerator::ZipfGenerator(size_t n, double s) : s_(s) {
  if (n == 0) n = 1;
  if (n > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("ZipfGenerator: more ranks than 32-bit guide");
  }
  cdf_.resize(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s_);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
  // cdf_.back() * n == n reaches every b, so the walk ends in range.
  const double scale = static_cast<double>(n);
  guide_.resize(n + 1);
  uint32_t k = 0;
  for (size_t b = 0; b <= n; ++b) {
    while (cdf_[k] * scale < static_cast<double>(b)) ++k;
    guide_[b] = k;
  }
}

size_t ZipfGenerator::RankOf(double u) const {
  // u < 1 makes the bucket b = floor(u * n) at most n. u * n rounds as the
  // guide's c * n did, so every rank before the start has c * n < b <=
  // u * n, hence c < u: the start is at or before the answer.
  // cdf_.back() == 1 > u ends the walk.
  size_t k = guide_[static_cast<size_t>(u * static_cast<double>(n()))];
  while (cdf_[k] < u) ++k;
  return k;
}

double ZipfGenerator::Pmf(size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  if (rank == 0) return cdf_[0];
  return cdf_[rank] - cdf_[rank - 1];
}

}  // namespace speedkit::workload
