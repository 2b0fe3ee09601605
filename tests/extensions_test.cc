// Tests for the extension features: epsilon-Partial Set Cover
// (the [ER14]/[CW16] generalization) and Max k-Cover ([SG09]'s origin
// problem).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baselines/streaming_max_cover.h"
#include "baselines/threshold_greedy.h"
#include "core/iter_set_cover.h"
#include "offline/greedy.h"
#include "offline/max_cover.h"
#include "setsystem/generators.h"

namespace streamcover {
namespace {

PlantedInstance MakeInstance(uint64_t seed, uint32_t n = 600,
                             uint32_t m = 1400, uint32_t k = 12) {
  Rng rng(seed);
  PlantedOptions options;
  options.num_elements = n;
  options.num_sets = m;
  options.cover_size = k;
  options.noise_max_size = n / 20;
  return GeneratePlanted(options, rng);
}

// ----- epsilon-Partial Set Cover ------------------------------------

class PartialCoverTest : public ::testing::TestWithParam<double> {};

TEST_P(PartialCoverTest, IterSetCoverReachesRequestedCoverage) {
  const double fraction = GetParam();
  PlantedInstance inst = MakeInstance(1);
  SetStream stream(&inst.system);
  IterSetCoverOptions options;
  options.delta = 0.5;
  options.coverage_fraction = fraction;
  StreamingResult r = IterSetCover(stream, options);
  ASSERT_TRUE(r.success);
  const double covered = static_cast<double>(CoveredCount(inst.system,
                                                          r.cover));
  EXPECT_GE(covered,
            fraction * inst.system.num_elements() - 1.0);
}

TEST_P(PartialCoverTest, ThresholdBaselinesReachRequestedCoverage) {
  const double fraction = GetParam();
  PlantedInstance inst = MakeInstance(2);
  {
    SetStream stream(&inst.system);
    BaselineResult r = ProgressiveGreedy(stream, fraction);
    ASSERT_TRUE(r.success);
    EXPECT_GE(static_cast<double>(CoveredCount(inst.system, r.cover)),
              fraction * inst.system.num_elements() - 1.0);
  }
  {
    SetStream stream(&inst.system);
    BaselineResult r = PolynomialThresholdCover(stream, 2, fraction);
    ASSERT_TRUE(r.success);
    EXPECT_GE(static_cast<double>(CoveredCount(inst.system, r.cover)),
              fraction * inst.system.num_elements() - 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, PartialCoverTest,
                         ::testing::Values(0.5, 0.9, 0.99, 1.0));

TEST(PartialCoverTest, PartialCoversAreNoLargerThanFull) {
  PlantedInstance inst = MakeInstance(3);
  auto run = [&](double fraction) {
    SetStream stream(&inst.system);
    IterSetCoverOptions options;
    options.delta = 0.5;
    options.coverage_fraction = fraction;
    return IterSetCover(stream, options).cover.size();
  };
  EXPECT_LE(run(0.5), run(1.0));
}

TEST(PartialCoverTest, PartialSucceedsOnUncoverableInstances) {
  // 10% of elements are in no set: a 0.9-partial cover must still
  // succeed while the full cover fails.
  SetSystem::Builder b(100);
  std::vector<uint32_t> covered_part;
  for (uint32_t e = 0; e < 90; ++e) covered_part.push_back(e);
  b.AddSet(covered_part);
  SetSystem system = std::move(b).Build();
  {
    SetStream stream(&system);
    IterSetCoverOptions options;
    options.coverage_fraction = 0.9;
    EXPECT_TRUE(IterSetCover(stream, options).success);
  }
  {
    SetStream stream(&system);
    IterSetCoverOptions options;
    EXPECT_FALSE(IterSetCover(stream, options).success);
  }
}

// ----- Max k-Cover ---------------------------------------------------

// Exhaustive Max k-Cover optimum: the best coverage over every subset of
// at most `budget` sets (m <= ~20).
uint64_t BruteForceMaxCoverage(const SetSystem& system, uint32_t budget) {
  const uint32_t m = system.num_sets();
  uint64_t best = 0;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    if (static_cast<uint32_t>(__builtin_popcount(mask)) > budget) continue;
    Cover c;
    for (uint32_t s = 0; s < m; ++s) {
      if (mask & (1u << s)) c.set_ids.push_back(s);
    }
    best = std::max<uint64_t>(best, CoveredCount(system, c));
  }
  return best;
}

TEST(MaxCoverTest, GreedyMatchesNemhauserBoundVsBruteForce) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    SetSystem system = GenerateUniformRandom(20, 12, 0.25, rng);
    for (uint32_t budget : {1u, 2u, 3u}) {
      MaxCoverResult greedy = GreedyMaxCover(system, budget);
      const uint64_t opt = BruteForceMaxCoverage(system, budget);
      EXPECT_LE(greedy.cover.size(), budget);
      EXPECT_GE(static_cast<double>(greedy.covered),
                (1.0 - 1.0 / std::exp(1.0)) * static_cast<double>(opt) -
                    1e-9)
          << "seed " << seed << " budget " << budget;
    }
  }
}

TEST(MaxCoverTest, FullBudgetCoversEverythingCoverable) {
  PlantedInstance inst = MakeInstance(4);
  MaxCoverResult r =
      GreedyMaxCover(inst.system, inst.system.num_sets());
  EXPECT_EQ(r.covered, inst.system.num_elements());
}

TEST(MaxCoverTest, CoveredCountMatchesVerification) {
  Rng rng(5);
  SetSystem system = GenerateUniformRandom(50, 30, 0.2, rng);
  MaxCoverResult r = GreedyMaxCover(system, 5);
  EXPECT_EQ(r.covered, CoveredCount(system, r.cover));
}

TEST(MaxCoverTest, PicksArePrefixOfGreedySolverPicks) {
  // Max k-Cover runs the offline greedy capped at k picks, so its cover
  // is exactly the first k picks of GreedySolver — ties included.
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    const SetSystem system = GenerateUniformRandom(30, 25, 0.2, rng);
    const std::vector<uint32_t> full =
        GreedySolver().Solve(system).cover.set_ids;
    for (uint32_t budget = 1; budget <= full.size(); ++budget) {
      const std::vector<uint32_t> prefix(full.begin(), full.begin() + budget);
      ASSERT_EQ(GreedyMaxCover(system, budget).cover.set_ids, prefix)
          << "seed " << seed << " budget " << budget;
    }
  }
}

TEST(StreamingMaxCoverTest, BudgetRespectedAndCompetitive) {
  PlantedInstance inst = MakeInstance(6);
  for (uint32_t budget : {4u, 8u, 16u}) {
    SetStream stream(&inst.system);
    StreamingMaxCoverResult streamed = StreamingMaxCover(stream, budget);
    EXPECT_LE(streamed.cover.size(), budget);
    EXPECT_EQ(streamed.covered,
              CoveredCount(inst.system, streamed.cover));
    MaxCoverResult offline = GreedyMaxCover(inst.system, budget);
    // Thresholding loses at most a constant factor vs offline greedy.
    EXPECT_GE(streamed.covered, offline.covered / 3);
    // O~(n) space.
    EXPECT_LT(streamed.space_words, inst.system.total_size());
  }
}

TEST(StreamingMaxCoverTest, SingleBudgetTakesABigSet) {
  PlantedInstance inst = MakeInstance(7);
  SetStream stream(&inst.system);
  StreamingMaxCoverResult r = StreamingMaxCover(stream, 1);
  ASSERT_EQ(r.cover.size(), 1u);
  // The thresholding guarantees at least n/2^passes coverage; with a
  // planted block structure the first qualifying set is large.
  EXPECT_GE(r.covered, inst.system.num_elements() / 64);
}

}  // namespace
}  // namespace streamcover
