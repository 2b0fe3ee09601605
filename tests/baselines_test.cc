// Tests for the Figure 1.1 baseline algorithms: feasibility, the
// advertised pass counts, and the space/approximation envelopes that
// distinguish the rows.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dimv14.h"
#include "baselines/iterative_greedy.h"
#include "baselines/threshold_greedy.h"
#include "core/instance.h"
#include "core/iter_set_cover.h"
#include "core/solver_registry.h"
#include "setsystem/generators.h"
#include "util/mathutil.h"

namespace streamcover {
namespace {

PlantedInstance MakeInstance(uint64_t seed, uint32_t n = 500,
                             uint32_t m = 1200, uint32_t k = 10) {
  Rng rng(seed);
  PlantedOptions options;
  options.num_elements = n;
  options.num_sets = m;
  options.cover_size = k;
  options.noise_max_size = n / 20;
  return GeneratePlanted(options, rng);
}

/// Figure 1.1's store-all row, through the registry.
RunResult RunStoreAll(const SetSystem& system) {
  Instance instance = Instance::WrapSystem(&system, {"store-all", ""});
  return RunSolver("store_all_greedy", instance, RunOptions());
}

TEST(StoreAllTest, OnePassFullSpace) {
  PlantedInstance inst = MakeInstance(1);
  RunResult r = RunStoreAll(inst.system);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
  EXPECT_EQ(r.passes, 1u);
  // Space ~ total input size (the O(mn) row).
  EXPECT_GE(r.space_words, inst.system.total_size());
}

TEST(IterativeGreedyTest, OnePassPerPickedSet) {
  PlantedInstance inst = MakeInstance(2);
  SetStream stream(&inst.system);
  BaselineResult r = IterativeGreedy(stream);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
  EXPECT_EQ(r.passes, r.cover.size());
  // O(n) space: far below the input size.
  EXPECT_LT(r.space_words, inst.system.total_size() / 4);
}

TEST(IterativeGreedyTest, MatchesOfflineGreedyQuality) {
  // Same picks as offline greedy => same ln n approximation behaviour.
  PlantedInstance inst = GenerateGreedyAdversarial(5);
  SetStream stream(&inst.system);
  BaselineResult r = IterativeGreedy(stream);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.cover.size(), 5u);  // falls for the columns, like greedy
}

TEST(IterativeGreedyTest, StopsOnUncoverableElements) {
  SetSystem::Builder b(4);
  b.AddSet({0, 1});
  SetSystem system = std::move(b).Build();  // 2, 3 uncoverable
  SetStream stream(&system);
  BaselineResult r = IterativeGreedy(stream);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.cover.set_ids, (std::vector<uint32_t>{0}));
}

TEST(ProgressiveGreedyTest, LogPassesLinearSpace) {
  PlantedInstance inst = MakeInstance(3);
  SetStream stream(&inst.system);
  BaselineResult r = ProgressiveGreedy(stream);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
  EXPECT_LE(r.passes, CeilLog2(inst.system.num_elements()) + 2);
  EXPECT_LT(r.space_words, inst.system.total_size() / 4);
}

TEST(ProgressiveGreedyTest, ApproximationWithinLogFactor) {
  PlantedInstance inst = MakeInstance(4);
  SetStream stream(&inst.system);
  BaselineResult r = ProgressiveGreedy(stream);
  ASSERT_TRUE(r.success);
  double log_n = std::log2(inst.system.num_elements());
  EXPECT_LE(r.cover.size(),
            2.0 * log_n * inst.planted_cover.size());
}

class ThresholdCoverTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ThresholdCoverTest, PPassesAndPolynomialApprox) {
  const uint32_t p = GetParam();
  PlantedInstance inst = MakeInstance(5);
  SetStream stream(&inst.system);
  BaselineResult r = PolynomialThresholdCover(stream, p);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
  EXPECT_EQ(r.passes, p);
  // (p+1) n^{1/(p+1)} * OPT bound with slack 3 for the pointer finish.
  double n = inst.system.num_elements();
  double bound = 3.0 * (p + 1) * std::pow(n, 1.0 / (p + 1)) *
                 static_cast<double>(inst.planted_cover.size());
  EXPECT_LE(static_cast<double>(r.cover.size()), bound);
}

INSTANTIATE_TEST_SUITE_P(Passes, ThresholdCoverTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(ThresholdCoverTest, Er14OnePassSqrtBehaviour) {
  // p = 1 is the [ER14] regime: one pass, O~(n) space.
  PlantedInstance inst = MakeInstance(6, /*n=*/900, /*m=*/1800, /*k=*/9);
  SetStream stream(&inst.system);
  BaselineResult r = PolynomialThresholdCover(stream, 1);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.passes, 1u);
  EXPECT_LT(r.space_words, inst.system.total_size());
}

TEST(Dimv14Test, CoversWithExponentialPasses) {
  PlantedInstance inst = MakeInstance(7, /*n=*/800, /*m=*/1600, /*k=*/10);
  SetStream stream(&inst.system);
  Dimv14Options options;
  options.delta = 0.34;
  BaselineResult r = Dimv14Cover(stream, options);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
  EXPECT_GE(r.passes, 1u);
}

TEST(Dimv14Test, MorePassesThanIterSetCoverAtSmallDelta) {
  // The reproduced phenomenon: DIMV14's pass count explodes as delta
  // shrinks while iterSetCover stays at 2/delta.
  PlantedInstance inst = MakeInstance(8, /*n=*/2000, /*m=*/2500, /*k=*/12);
  const double delta = 0.2;

  SetStream s1(&inst.system);
  Dimv14Options dimv;
  dimv.delta = delta;
  BaselineResult dimv_result = Dimv14Cover(s1, dimv);

  SetStream s2(&inst.system);
  IterSetCoverOptions iter;
  iter.delta = delta;
  StreamingResult iter_result = IterSetCover(s2, iter);

  ASSERT_TRUE(dimv_result.success);
  ASSERT_TRUE(iter_result.success);
  EXPECT_GT(dimv_result.passes, iter_result.passes);
}

TEST(BaselineDeterminismTest, SameSeedSameCover) {
  PlantedInstance inst = MakeInstance(9);
  Dimv14Options options;
  options.delta = 0.5;
  options.seed = 5;
  SetStream s1(&inst.system), s2(&inst.system);
  BaselineResult a = Dimv14Cover(s1, options);
  BaselineResult b = Dimv14Cover(s2, options);
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
}

TEST(BaselineEdgeCaseTest, SingleCoveringSet) {
  SetSystem::Builder b(8);
  b.AddSet({0, 1, 2, 3, 4, 5, 6, 7});
  b.AddSet({0});
  SetSystem system = std::move(b).Build();
  EXPECT_EQ(RunStoreAll(system).cover.size(), 1u);
  {
    SetStream stream(&system);
    EXPECT_EQ(IterativeGreedy(stream).cover.size(), 1u);
  }
  {
    SetStream stream(&system);
    EXPECT_EQ(ProgressiveGreedy(stream).cover.size(), 1u);
  }
  {
    SetStream stream(&system);
    BaselineResult r = PolynomialThresholdCover(stream, 2);
    EXPECT_TRUE(r.success);
  }
}

}  // namespace
}  // namespace streamcover
