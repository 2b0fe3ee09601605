// Tests for element sampling, including a direct property check of
// Definition 2.4 (relative (p,eps)-approximation) at the sample sizes of
// Lemma 2.5.

#include <gtest/gtest.h>

#include <set>

#include "relative_approx_oracle.h"
#include "stream/sampling.h"
#include "util/mathutil.h"

namespace streamcover {
namespace {

TEST(SampleFromBitsetTest, SamplesAreDistinctSortedMembers) {
  DynamicBitset universe(1000);
  for (uint32_t i = 0; i < 1000; i += 3) universe.Set(i);
  Rng rng(4);
  auto sample = SampleFromBitset(universe, 50, rng);
  ASSERT_EQ(sample.size(), 50u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 50u);
  for (uint32_t e : sample) EXPECT_TRUE(universe.Test(e));
}

TEST(SampleFromBitsetTest, OversizedRequestReturnsWholeUniverse) {
  DynamicBitset universe(100);
  universe.Set(3);
  universe.Set(64);
  Rng rng(1);
  auto sample = SampleFromBitset(universe, 10, rng);
  EXPECT_EQ(sample, (std::vector<uint32_t>{3, 64}));
}

TEST(SampleFromBitsetTest, UniformCoverage) {
  // Every element should be sampled with roughly equal frequency.
  DynamicBitset universe(20, true);
  std::vector<int> counts(20, 0);
  Rng rng(9);
  const int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    for (uint32_t e : SampleFromBitset(universe, 5, rng)) ++counts[e];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 4, kTrials / 40);  // 5/20 = 1/4 inclusion
  }
}

TEST(RelativeApproxCheckTest, ExactSampleIsAlwaysApprox) {
  DynamicBitset universe(64, true);
  DynamicBitset range(64);
  for (uint32_t i = 0; i < 20; ++i) range.Set(i);
  // The whole universe as "sample" reproduces fractions exactly.
  EXPECT_TRUE(
      IsRelativeApproxForRange(universe, universe, range, 0.1, 0.25));
}

TEST(RelativeApproxCheckTest, DetectsGrossViolation) {
  DynamicBitset universe(64, true);
  DynamicBitset range(64);
  for (uint32_t i = 0; i < 32; ++i) range.Set(i);  // half the universe
  DynamicBitset bad_sample(64);
  for (uint32_t i = 32; i < 64; ++i) bad_sample.Set(i);  // misses range
  EXPECT_FALSE(
      IsRelativeApproxForRange(universe, bad_sample, range, 0.1, 0.25));
}

// Empirical Lemma 2.5: samples of the prescribed size are relative
// (p, eps)-approximations for a family of random ranges, with failure
// rate far below the union-bound target.
class RelativeApproxLemmaTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelativeApproxLemmaTest, PrescribedSizeWorks) {
  const uint32_t n = 4000;
  const double p = 0.1, eps = 0.5;
  const uint32_t num_ranges = 64;
  Rng rng(GetParam());

  DynamicBitset universe(n, true);
  // Random ranges of geometric sizes (some light, some heavy).
  std::vector<DynamicBitset> ranges;
  for (uint32_t r = 0; r < num_ranges; ++r) {
    DynamicBitset range(n);
    uint32_t size = 1u << (rng.Uniform(12));
    for (uint32_t e : rng.SampleWithoutReplacement(n, std::min(size, n))) {
      range.Set(e);
    }
    ranges.push_back(std::move(range));
  }

  uint64_t sample_size = RelativeApproxSampleSize(
      p, eps, Log2Clamped(num_ranges), /*log_inv_q=*/4.0, /*c_prime=*/0.5);
  ASSERT_LT(sample_size, n);
  auto sample_vec = SampleFromBitset(universe, sample_size, rng);
  DynamicBitset sample(n);
  for (uint32_t e : sample_vec) sample.Set(e);

  size_t violations = 0;
  for (const auto& range : ranges) {
    if (!IsRelativeApproxForRange(universe, sample, range, p, eps)) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0u) << "sample size " << sample_size;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelativeApproxLemmaTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace streamcover
