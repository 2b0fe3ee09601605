// Tests for the extension features: epsilon-Partial Set Cover
// (the [ER14]/[CW16] generalization) and Max k-Cover ([SG09]'s origin
// problem).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/threshold_greedy.h"
#include "core/iter_set_cover.h"
#include "offline/greedy.h"
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
// ProgressiveGreedy under a pick budget (registry streaming_max_cover).

TEST(StreamingMaxCoverTest, BudgetRespectedAndCompetitive) {
  PlantedInstance inst = MakeInstance(6);
  for (uint32_t budget : {4u, 8u, 16u}) {
    SetStream stream(&inst.system);
    BaselineResult streamed = ProgressiveGreedy(stream, 1.0, budget);
    EXPECT_LE(streamed.cover.size(), budget);
    const uint64_t covered = CoveredCount(inst.system, streamed.cover);
    // Offline greedy Max k-Cover: the first `budget` picks of the
    // greedy cover. Thresholding loses at most a constant factor to it.
    Cover offline = GreedySolver().Solve(inst.system).cover;
    offline.set_ids.resize(std::min<size_t>(offline.size(), budget));
    const uint64_t offline_covered = CoveredCount(inst.system, offline);
    EXPECT_GE(covered, offline_covered / 3);
    // O~(n) space.
    EXPECT_LT(streamed.space_words, inst.system.total_size());
  }
}

TEST(StreamingMaxCoverTest, SingleBudgetTakesABigSet) {
  PlantedInstance inst = MakeInstance(7);
  SetStream stream(&inst.system);
  BaselineResult r = ProgressiveGreedy(stream, 1.0, 1);
  ASSERT_EQ(r.cover.size(), 1u);
  // The thresholding guarantees at least n/2^passes coverage; with a
  // planted block structure the first qualifying set is large.
  EXPECT_GE(CoveredCount(inst.system, r.cover),
            inst.system.num_elements() / 64);
}

}  // namespace
}  // namespace streamcover
