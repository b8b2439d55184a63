// Zipfian popularity sampling.
//
// Web object popularity is classically Zipf-like (Breslau et al. 1999);
// every Speed Kit experiment that sweeps "skew" sweeps the exponent here.
// Sampling is inverse-CDF over a precomputed table, exact distribution (no
// YCSB-style approximation error). A guide table over the CDF starts each
// search next to its answer: O(n) setup, O(1) expected per sample, and
// the rank is the one a binary search of the CDF returns for the same
// uniform draw. The tables cost 12 B per rank (8 B of CDF, 4 B of guide).
#ifndef SPEEDKIT_WORKLOAD_ZIPF_H_
#define SPEEDKIT_WORKLOAD_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace speedkit::workload {

class ZipfGenerator {
 public:
  // Ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s. s == 0 is
  // uniform; s must be finite. Throws std::length_error when n does not
  // fit the 32-bit guide entries.
  ZipfGenerator(size_t n, double s);

  size_t Sample(Pcg32& rng) const { return RankOf(rng.NextDouble()); }

  // The first rank whose CDF value reaches u, for u in [0, 1): the
  // inverse-CDF step of Sample.
  size_t RankOf(double u) const;

  // Probability mass of a given rank.
  double Pmf(size_t rank) const;

  size_t n() const { return cdf_.size(); }
  double s() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;
  // n + 1 entries; entry b is the first rank whose CDF value c has
  // c * n >= b, rounded as a draw's u * n is, so that a draw in bucket b
  // (b <= u * n < b + 1) starts at or before its answer.
  std::vector<uint32_t> guide_;
};

}  // namespace speedkit::workload

#endif  // SPEEDKIT_WORKLOAD_ZIPF_H_
