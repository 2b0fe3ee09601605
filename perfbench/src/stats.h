// Order statistics for the benchmark's reported timings.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle order statistics for an
/// even count); 0 for an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + mid));
}

/// The tail latency worth reporting: the nearest-rank q-percentile when
/// at least ten samples lie beyond it (q = 0.99 needs 1000 samples),
/// else the highest rank that still leaves ten beyond — but never below
/// the median, which is what a handful of samples supports.
inline double ReportableTail(std::vector<double> values, double q) {
  constexpr size_t kBeyond = 10;
  const double median = Median(values);
  if (values.size() <= kBeyond) return median;
  const size_t rank = std::min(
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))),
      values.size() - kBeyond);
  if (rank == 0) return median;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return std::max(values[rank - 1], median);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
