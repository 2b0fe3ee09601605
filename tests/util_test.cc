// Unit tests for the util substrate: DynamicBitset, Rng, stats, math
// helpers, and the markdown table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "relative_approx_oracle.h"
#include "util/bitset.h"
#include "util/mathutil.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace streamcover {
namespace {

TEST(DynamicBitsetTest, ConstructionAllClear) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
  EXPECT_EQ(b.WordCount(), 3u);
}

TEST(DynamicBitsetTest, ConstructionAllSetMasksTail) {
  DynamicBitset b(70, true);
  EXPECT_EQ(b.Count(), 70u);
  EXPECT_TRUE(b.Test(69));
  // The tail bits beyond size must not be set (Count depends on it).
  b.Reset(69);
  EXPECT_EQ(b.Count(), 69u);
}

TEST(DynamicBitsetTest, SetResetTest) {
  DynamicBitset b(100);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Reset(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(DynamicBitsetTest, FindFirstAndNext) {
  DynamicBitset b(200);
  EXPECT_EQ(b.FindFirst(), 200u);
  b.Set(5);
  b.Set(64);
  b.Set(199);
  EXPECT_EQ(b.FindFirst(), 5u);
  EXPECT_EQ(b.FindNext(5), 64u);
  EXPECT_EQ(b.FindNext(64), 199u);
  EXPECT_EQ(b.FindNext(199), 200u);
}

TEST(DynamicBitsetTest, BitwiseOps) {
  DynamicBitset a(128), b(128);
  a.Set(1);
  a.Set(100);
  b.Set(100);
  b.Set(2);
  DynamicBitset a_and = a;
  a_and &= b;
  EXPECT_EQ(a_and.ToVector(), std::vector<uint32_t>{100});
  DynamicBitset a_or = a;
  a_or |= b;
  EXPECT_EQ(a_or.Count(), 3u);
  DynamicBitset a_not = a;
  a_not.AndNot(b);
  EXPECT_EQ(a_not.ToVector(), std::vector<uint32_t>{1});
}

TEST(DynamicBitsetTest, FindNextCrossesWordBoundary) {
  // A set bit at 63 (last of word 0) and 64 (first of word 1) must chain
  // through FindNext without skipping or double-visiting.
  DynamicBitset b(130);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_EQ(b.FindFirst(), 63u);
  EXPECT_EQ(b.FindNext(0), 63u);
  EXPECT_EQ(b.FindNext(62), 63u);
  EXPECT_EQ(b.FindNext(63), 64u);
  EXPECT_EQ(b.FindNext(64), 129u);
  EXPECT_EQ(b.FindNext(129), b.size());
  // FindNext from positions inside an all-clear word still lands on the
  // next word's bit.
  b.Reset(64);
  EXPECT_EQ(b.FindNext(63), 129u);
}

TEST(DynamicBitsetTest, FindNextOnBoundarySizes) {
  for (size_t size : {size_t{1}, size_t{64}, size_t{65}, size_t{128}}) {
    DynamicBitset b(size);
    b.Set(size - 1);
    EXPECT_EQ(b.FindFirst(), size - 1) << "size=" << size;
    EXPECT_EQ(b.FindNext(size - 1), size) << "size=" << size;
    // Past-the-end probes must not read out of bounds or wrap.
    EXPECT_EQ(b.FindNext(size), size) << "size=" << size;
  }
}

TEST(DynamicBitsetTest, CountOnBoundarySizes) {
  for (size_t size :
       {size_t{0}, size_t{1}, size_t{64}, size_t{65}, size_t{1000}}) {
    DynamicBitset all(size, true);
    EXPECT_EQ(all.Count(), size) << "size=" << size;
    DynamicBitset none(size, false);
    EXPECT_EQ(none.Count(), 0u) << "size=" << size;
    if (size > 0) {
      none.Set(size - 1);
      EXPECT_EQ(none.Count(), 1u) << "size=" << size;
      none.SetAll();
      EXPECT_EQ(none.Count(), size) << "size=" << size;
    }
  }
}

TEST(DynamicBitsetTest, AndNotAcrossWordBoundary) {
  DynamicBitset a(65, true);
  DynamicBitset mask(65);
  mask.Set(0);
  mask.Set(63);
  mask.Set(64);
  a.AndNot(mask);
  EXPECT_EQ(a.Count(), 62u);
  EXPECT_FALSE(a.Test(0));
  EXPECT_FALSE(a.Test(63));
  EXPECT_FALSE(a.Test(64));
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(62));
  // AndNot with an empty mask is the identity; with itself, clears.
  DynamicBitset empty(65);
  a.AndNot(empty);
  EXPECT_EQ(a.Count(), 62u);
  a.AndNot(a);
  EXPECT_EQ(a.Count(), 0u);
}

TEST(DynamicBitsetTest, OrIntoMatchesOrAssign) {
  DynamicBitset src(130);
  src.Set(0);
  src.Set(64);
  src.Set(129);
  DynamicBitset dst(130);
  dst.Set(1);
  dst.Set(64);
  DynamicBitset expect = dst;
  expect |= src;
  src.OrInto(dst);
  EXPECT_TRUE(dst == expect);
  EXPECT_EQ(dst.Count(), 4u);
  // src is untouched.
  EXPECT_EQ(src.Count(), 3u);
}

TEST(DynamicBitsetTest, MismatchedUniversesAreFatal) {
  // The word-parallel combiners assume both operands span the same
  // universe; a mismatch would read/write off the shorter word array,
  // so it is a CHECK (active in every build), not a debug assert. The
  // off-by-one-word case (64 vs 65) is the one a length bug would
  // actually produce.
  DynamicBitset small(64);
  DynamicBitset large(65);
  EXPECT_DEATH(small.OrInto(large), "CHECK failed");
  EXPECT_DEATH(large.OrInto(small), "CHECK failed");
  // Same word count but different logical sizes is still a mismatch.
  DynamicBitset sixty_three(63);
  EXPECT_DEATH(sixty_three.OrInto(small), "CHECK failed");
}

TEST(DynamicBitsetTest, WordsViewsExposeBackingStorage) {
  DynamicBitset b(130);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  const std::span<const uint64_t> words = b.Words();
  ASSERT_EQ(words.size(), b.WordCount());
  EXPECT_EQ(words[0], 1ULL);
  EXPECT_EQ(words[1], 1ULL);
  EXPECT_EQ(words[2], 2ULL);
  // MutableWords writes are the bitset's bits.
  b.MutableWords()[0] |= 1ULL << 5;
  EXPECT_TRUE(b.Test(5));
}

TEST(DynamicBitsetTest, ForEachMatchesToVectorAcrossBoundaries) {
  DynamicBitset b(1000);
  for (size_t i : {size_t{0}, size_t{63}, size_t{64}, size_t{65},
                   size_t{127}, size_t{128}, size_t{999}}) {
    b.Set(i);
  }
  std::vector<uint32_t> visited;
  b.ForEach([&](uint32_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, b.ToVector());
  EXPECT_EQ(visited.size(), b.Count());
}

TEST(DynamicBitsetTest, ForEachVisitsAscending) {
  DynamicBitset b(300);
  std::vector<uint32_t> expect = {0, 63, 64, 128, 299};
  for (uint32_t i : expect) b.Set(i);
  std::vector<uint32_t> seen;
  b.ForEach([&](uint32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expect);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 80);  // within 10% of expectation
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(3);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint32_t v : sample) EXPECT_LT(v, 100u);
  // Full sample returns the whole population.
  auto full = rng.SampleWithoutReplacement(10, 10);
  EXPECT_EQ(std::set<uint32_t>(full.begin(), full.end()).size(), 10u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ForkDiverges) {
  Rng a(9);
  Rng b = a.Fork();
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(LogLogSlopeTest, RecoversPowerLaw) {
  std::vector<double> x, y;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, 1.7));
  }
  EXPECT_NEAR(LogLogSlope(x, y), 1.7, 1e-9);
}

TEST(MathUtilTest, CeilDivAndLogs) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(1023), 9u);
  EXPECT_EQ(CeilLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1025), 11u);
}

TEST(MathUtilTest, IterSetCoverSampleSizeClampsToUniverse) {
  // Huge k forces the raw size far above the universe.
  EXPECT_EQ(IterSetCoverSampleSize(1.0, 1.0, 1u << 20, 1024, 0.5, 2048, 500),
            500u);
  // Tiny parameters still produce at least 1.
  EXPECT_GE(IterSetCoverSampleSize(1e-9, 1.0, 1, 4, 0.1, 4, 100), 1u);
  // Zero universe yields zero.
  EXPECT_EQ(IterSetCoverSampleSize(1.0, 1.0, 1, 1024, 0.5, 2048, 0), 0u);
}

TEST(MathUtilTest, SampleSizeGrowsWithNDelta) {
  uint64_t small = IterSetCoverSampleSize(1.0, 1.0, 4, 1024, 0.25, 2048,
                                          1u << 30);
  uint64_t large = IterSetCoverSampleSize(1.0, 1.0, 4, 1024, 0.75, 2048,
                                          1u << 30);
  EXPECT_LT(small, large);
}

TEST(MathUtilTest, RelativeApproxSampleSizeMatchesFormula) {
  // c'/(eps^2 p) * (log|H| * log(1/p) + log(1/q)).
  double p = 0.25, eps = 0.5, logH = 10, logq = 3, c = 2.0;
  double expect = (c / (eps * eps * p)) * (logH * std::log2(1 / p) + logq);
  EXPECT_EQ(RelativeApproxSampleSize(p, eps, logH, logq, c),
            static_cast<uint64_t>(std::ceil(expect)));
}

TEST(MathUtilTest, AllowedUncoveredExactFractionsAndEdges) {
  // Full cover allows nothing uncovered.
  EXPECT_EQ(AllowedUncovered(100, 1.0), 0u);
  EXPECT_EQ(AllowedUncovered(0, 1.0), 0u);
  EXPECT_EQ(AllowedUncovered(1, 1.0), 0u);
  // The epsilon guard: 0.9 * 100 must be exactly 90 required, 10
  // allowed, despite 0.9 not being representable in binary.
  EXPECT_EQ(AllowedUncovered(100, 0.9), 10u);
  EXPECT_EQ(AllowedUncovered(10, 0.9), 1u);
  EXPECT_EQ(AllowedUncovered(1000, 0.999), 1u);
  // Fractions demanding "almost nothing" still require >= 1 element of
  // a non-empty universe (ceil of a positive product).
  EXPECT_EQ(AllowedUncovered(100, 0.001), 99u);
  // Non-terminating fractions round the required count up.
  EXPECT_EQ(AllowedUncovered(3, 0.5), 1u);   // ceil(1.5) = 2 required
  EXPECT_EQ(AllowedUncovered(7, 1.0 / 3.0), 4u);  // ceil(2.33) = 3
}

TEST(MathUtilTest, AllowedUncoveredNeverUnderflows) {
  // The seed computed n - ceil(...) in unsigned arithmetic with no
  // clamp; a fraction whose product rounds above n would wrap to ~2^64.
  // The result must stay <= n for every fraction in (0, 1].
  const uint64_t kN[] = {1, 2, 3, 10, 97, 1000, 1u << 20};
  const double kFractions[] = {1e-9, 0.1, 0.5, 0.9999999, 1.0};
  for (uint64_t n : kN) {
    for (double f : kFractions) {
      const uint64_t allowed = AllowedUncovered(n, f);
      EXPECT_LE(allowed, n) << "n=" << n << " f=" << f;
    }
  }
  // The next double below 1.0 times a large n lands within a ULP of n;
  // ceil must not push required past n and wrap the subtraction.
  const double just_below_one = std::nextafter(1.0, 0.0);
  EXPECT_LE(AllowedUncovered(uint64_t{1} << 31, just_below_one),
            uint64_t{1} << 31);
}

TEST(TableTest, PrintsMarkdown) {
  Table t({"algo", "passes"});
  t.AddRow({"greedy", Table::Fmt(1)});
  t.AddRow({"iter", Table::Fmt(2.5, 1)});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| algo   | passes |"), std::string::npos);
  EXPECT_NE(out.find("| greedy | 1      |"), std::string::npos);
  EXPECT_NE(out.find("| iter   | 2.5    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

}  // namespace
}  // namespace streamcover
