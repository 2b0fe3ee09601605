#include "util/mathutil.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace streamcover {

uint64_t CeilDiv(uint64_t a, uint64_t b) {
  SC_CHECK_GT(b, 0u);
  return (a + b - 1) / b;
}

uint32_t FloorLog2(uint64_t x) {
  SC_CHECK_GE(x, 1u);
  return 63u - static_cast<uint32_t>(__builtin_clzll(x));
}

uint32_t CeilLog2(uint64_t x) {
  SC_CHECK_GE(x, 1u);
  uint32_t f = FloorLog2(x);
  return ((x & (x - 1)) == 0) ? f : f + 1;
}

double Log2Clamped(uint64_t x) {
  return std::log2(static_cast<double>(std::max<uint64_t>(x, 2)));
}

double PowDouble(double x, double delta) { return std::pow(x, delta); }

namespace {

uint64_t ClampSample(double raw, uint64_t universe_size) {
  if (universe_size == 0) return 0;
  double clamped = std::max(raw, 1.0);
  if (clamped >= static_cast<double>(universe_size)) return universe_size;
  return static_cast<uint64_t>(std::ceil(clamped));
}

}  // namespace

uint64_t IterSetCoverSampleSize(double c, double rho, uint64_t k, uint64_t n,
                                double delta, uint64_t m,
                                uint64_t universe_size) {
  double raw = c * rho * static_cast<double>(k) *
               PowDouble(static_cast<double>(n), delta) * Log2Clamped(m) *
               Log2Clamped(n);
  return ClampSample(raw, universe_size);
}

uint64_t GeomSampleSize(double c, double rho, uint64_t k, uint64_t n,
                        double delta, uint64_t m, uint64_t universe_size) {
  double ratio = static_cast<double>(n) / static_cast<double>(std::max<uint64_t>(k, 1));
  double raw = c * rho * static_cast<double>(k) *
               PowDouble(std::max(ratio, 1.0), delta) * Log2Clamped(m) *
               Log2Clamped(n);
  return ClampSample(raw, universe_size);
}

uint64_t AllowedUncovered(uint64_t n, double coverage_fraction) {
  // A fraction above 1 would make the subtraction below wrap to a huge
  // unsigned allowance ("everything may stay uncovered"); callers
  // validate user input, so out-of-range here is a programming error.
  SC_CHECK(coverage_fraction > 0.0 && coverage_fraction <= 1.0);
  uint64_t required = static_cast<uint64_t>(std::ceil(
      coverage_fraction * static_cast<double>(n) - 1e-9));
  required = std::min(required, n);  // float round-up guard at fraction 1
  return n - required;
}

}  // namespace streamcover
