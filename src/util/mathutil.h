// Integer/float math helpers shared across modules, including the
// sample sizes iterSetCover and algGeomSC draw (Figures 1.3 and 4.1).

#ifndef STREAMCOVER_UTIL_MATHUTIL_H_
#define STREAMCOVER_UTIL_MATHUTIL_H_

#include <cstdint>

namespace streamcover {

/// ceil(a / b) for positive integers.
uint64_t CeilDiv(uint64_t a, uint64_t b);

/// floor(log2(x)) for x >= 1.
uint32_t FloorLog2(uint64_t x);

/// ceil(log2(x)) for x >= 1.
uint32_t CeilLog2(uint64_t x);

/// log2(max(x,2)) as a double — the paper's "log" (base 2), floored at 1
/// so degenerate tiny instances don't produce zero sample sizes.
double Log2Clamped(uint64_t x);

/// x^delta for x >= 0.
double PowDouble(double x, double delta);

/// The iterSetCover per-iteration sample size (Figure 1.3):
///   ceil(c * rho * k * n^delta * log m * log n),
/// clamped to [1, universe_size].
uint64_t IterSetCoverSampleSize(double c, double rho, uint64_t k, uint64_t n,
                                double delta, uint64_t m,
                                uint64_t universe_size);

/// The algGeomSC per-iteration sample size (Figure 4.1):
///   ceil(c * rho * k * (n/k)^delta * log m * log n),
/// clamped to [1, universe_size].
uint64_t GeomSampleSize(double c, double rho, uint64_t k, uint64_t n,
                        double delta, uint64_t m, uint64_t universe_size);

/// epsilon-Partial Set Cover allowance: how many of the n elements may
/// stay uncovered when the target is `coverage_fraction` of U. Computed
/// as n - ceil(fraction*n) with an epsilon guard so that e.g. fraction
/// 0.9 of n=100 allows exactly 10 uncovered elements despite 1.0 - 0.9
/// not being representable. Fraction must be in (0, 1]; 1.0 = classic
/// full cover (allowance 0).
uint64_t AllowedUncovered(uint64_t n, double coverage_fraction);

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_MATHUTIL_H_
