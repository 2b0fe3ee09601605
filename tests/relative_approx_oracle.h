// Oracles for the paper's sampling guarantee, used by the sampling
// property tests to check SampleFromBitset (stream/sampling.h):
//   * RelativeApproxSampleSize — Lemma 2.5's sample size;
//   * IsRelativeApproxForRange — a direct check of Definition 2.4.
// No solver calls them: iterSetCover and algGeomSC size their samples
// with IterSetCoverSampleSize / GeomSampleSize (util/mathutil.h).

#ifndef STREAMCOVER_TESTS_RELATIVE_APPROX_ORACLE_H_
#define STREAMCOVER_TESTS_RELATIVE_APPROX_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/bitset.h"
#include "util/check.h"

namespace streamcover {

/// Sample size from Lemma 2.5: a uniform sample of size
///   (c' / (eps^2 p)) * (log |H| * log(1/p) + log(1/q))
/// is a relative (p,eps)-approximation for the range family H with
/// probability >= 1 - q. `log_ranges` is log2 |H|.
inline uint64_t RelativeApproxSampleSize(double p, double eps,
                                         double log_ranges,
                                         double log_inv_q, double c_prime) {
  SC_CHECK(p > 0.0 && p <= 1.0);
  SC_CHECK(eps > 0.0);
  double size = (c_prime / (eps * eps * p)) *
                (log_ranges * std::log2(1.0 / p) + log_inv_q);
  return static_cast<uint64_t>(std::ceil(std::max(size, 1.0)));
}

/// Directly checks Definition 2.4: is `sample` (a subset of `universe`)
/// a relative (p, eps)-approximation for range `range`? All three sets
/// are bitsets over the same ground set.
inline bool IsRelativeApproxForRange(const DynamicBitset& universe,
                                     const DynamicBitset& sample,
                                     const DynamicBitset& range, double p,
                                     double eps) {
  SC_CHECK_EQ(universe.size(), sample.size());
  SC_CHECK_EQ(universe.size(), range.size());
  const double universe_count = static_cast<double>(universe.Count());
  const double sample_count = static_cast<double>(sample.Count());
  SC_CHECK_GT(universe_count, 0.0);
  SC_CHECK_GT(sample_count, 0.0);

  DynamicBitset r = range;
  r &= universe;
  const double range_frac = static_cast<double>(r.Count()) / universe_count;

  DynamicBitset rs = range;
  rs &= sample;
  const double sample_frac = static_cast<double>(rs.Count()) / sample_count;

  // Small slack guards against floating-point edge equality.
  constexpr double kTie = 1e-12;
  if (range_frac >= p) {
    return sample_frac >= (1.0 - eps) * range_frac - kTie &&
           sample_frac <= (1.0 + eps) * range_frac + kTie;
  }
  return sample_frac >= range_frac - eps * p - kTie &&
         sample_frac <= range_frac + eps * p + kTie;
}

}  // namespace streamcover

#endif  // STREAMCOVER_TESTS_RELATIVE_APPROX_ORACLE_H_
