// Deterministic pseudo-random number generation.
//
// All randomized components of the library draw from `Rng`, a
// xoshiro256** generator seeded via SplitMix64. Using our own generator
// (instead of std::mt19937) guarantees bit-identical streams across
// standard libraries and platforms, which the tests and benchmark tables
// rely on for reproducibility.

#ifndef STREAMCOVER_UTIL_RNG_H_
#define STREAMCOVER_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace streamcover {

/// xoshiro256** PRNG with SplitMix64 seeding. Not cryptographic.
class Rng {
 public:
  /// Seeds the generator deterministically from `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit output.
  uint64_t Next();

  /// Returns a uniform integer in [0, bound). `bound` must be > 0.
  /// Uses Lemire's nearly-divisionless unbiased method.
  uint64_t Uniform(uint64_t bound);

  /// Returns a uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a uniform double in [0, 1).
  double UniformDouble();

  /// Returns true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Samples `k` distinct values from [0, n) using Robert Floyd's
  /// algorithm: k draws Uniform(j + 1) for j = n-k .. n-1, keeping the
  /// draw or, if it was kept before, j. The output is in draw order,
  /// not sorted. Requires k <= n.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

  /// Same draws and order, appended to `out` — the path generators use
  /// to stage sets into a shared CSR buffer. Membership is tested by a
  /// scan of the values kept so far for k <= 32 and by a flat
  /// open-addressing table otherwise (on the stack up to k = 2048), so
  /// no call allocates per element.
  void SampleWithoutReplacementInto(uint32_t n, uint32_t k,
                                    std::vector<uint32_t>& out);

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator (useful for parallel
  /// sub-experiments that must not share a stream).
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_RNG_H_
