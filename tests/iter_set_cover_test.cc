// Tests for iterSetCover (Figure 1.3 / Theorem 2.8): feasibility, the
// 2/delta pass formula (Lemma 2.1), per-iteration shrink (Lemma 2.6),
// approximation quality against planted optima, space accounting, and
// determinism. Parameterized sweeps over delta and seeds.

#include <gtest/gtest.h>

#include <cmath>

#include "core/iter_set_cover.h"
#include "offline/exact.h"
#include "offline/greedy.h"
#include "setsystem/generators.h"
#include "stream/pass_scheduler.h"

namespace streamcover {
namespace {

PlantedInstance MakeInstance(uint64_t seed, uint32_t n = 600,
                             uint32_t m = 1500, uint32_t k = 12) {
  Rng rng(seed);
  PlantedOptions options;
  options.num_elements = n;
  options.num_sets = m;
  options.cover_size = k;
  options.noise_max_size = n / 20;
  return GeneratePlanted(options, rng);
}

TEST(IterSetCoverTest, ProducesFeasibleCover) {
  PlantedInstance inst = MakeInstance(1);
  SetStream stream(&inst.system);
  IterSetCoverOptions options;
  options.delta = 0.5;
  StreamingResult result = IterSetCover(stream, options);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(IsFullCover(inst.system, result.cover));
}

TEST(IterSetCoverTest, SingleGuessPassCountIsTwoOverDelta) {
  // Lemma 2.1: each of the ceil(1/delta) iterations costs exactly two
  // passes (when no iteration terminates early). Use an oversized guess
  // k so heavy sets cannot finish the job in one iteration... the guess
  // k = 1 with a multi-set optimum keeps all iterations running.
  PlantedInstance inst = MakeInstance(2);
  for (double delta : {1.0, 0.5, 0.25, 0.2}) {
    SetStream stream(&inst.system);
    IterSetCoverOptions options;
    options.delta = delta;
    StreamingResult result = IterSetCoverSingleGuess(stream, 1, options);
    uint64_t iterations = static_cast<uint64_t>(std::ceil(1.0 / delta));
    EXPECT_LE(result.passes, 2 * iterations) << "delta " << delta;
    EXPECT_GE(result.passes, 2u);
  }
}

TEST(IterSetCoverTest, ParallelPassAccountingIsMaxOverGuesses) {
  PlantedInstance inst = MakeInstance(3);
  SetStream stream(&inst.system);
  IterSetCoverOptions options;
  options.delta = 0.5;
  StreamingResult result = IterSetCover(stream, options);
  // Per-guess max is at most 2 * ceil(1/delta).
  EXPECT_LE(result.passes, 4u);
  // Logical sequential scans cover all log n + 1 guesses...
  EXPECT_GT(result.sequential_scans, result.passes);
  // ...but the repository only pays one shared scan per round: the
  // stream's pass counter now counts physical scans, which collapse to
  // the per-guess max.
  EXPECT_EQ(result.physical_scans, result.passes);
  EXPECT_EQ(stream.passes(), result.physical_scans);
}

class IterSetCoverSweepTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(IterSetCoverSweepTest, FeasibleAndNearPlantedOptimum) {
  auto [delta, seed] = GetParam();
  PlantedInstance inst = MakeInstance(seed);
  SetStream stream(&inst.system);
  IterSetCoverOptions options;
  options.delta = delta;
  options.seed = seed;
  StreamingResult result = IterSetCover(stream, options);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(IsFullCover(inst.system, result.cover));
  // O(rho/delta) guarantee with generous constant: greedy rho ~ ln n.
  double rho = std::log(inst.system.num_elements()) + 1;
  double bound = 4.0 * rho / delta * inst.planted_cover.size();
  EXPECT_LE(result.cover.size(), bound);
}

INSTANTIATE_TEST_SUITE_P(
    DeltaSeeds, IterSetCoverSweepTest,
    ::testing::Combine(::testing::Values(1.0, 0.5, 0.34, 0.25),
                       ::testing::Values(1, 2, 3)));

TEST(IterSetCoverTest, DeterministicPerSeed) {
  // Same seed, same run — also when the guesses' pass ends (sub-instance
  // builds and offline solves) run concurrently on 4 workers.
  PlantedInstance inst = MakeInstance(4);
  IterSetCoverOptions options;
  options.delta = 0.5;
  options.seed = 77;
  SetStream s1(&inst.system), s2(&inst.system), s3(&inst.system);
  StreamingResult a = IterSetCover(s1, options);
  StreamingResult b = IterSetCover(s2, options);
  PassScheduler threaded(s3, 4);
  StreamingResult c = IterSetCover(threaded, options);
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
  EXPECT_EQ(a.space_words_parallel, b.space_words_parallel);
  EXPECT_EQ(a.cover.set_ids, c.cover.set_ids);
  EXPECT_EQ(a.space_words_parallel, c.space_words_parallel);
}

TEST(IterSetCoverTest, DiagnosticsShowShrinkingResiduals) {
  PlantedInstance inst = MakeInstance(5, /*n=*/2000, /*m=*/3000, /*k=*/16);
  SetStream stream(&inst.system);
  IterSetCoverOptions options;
  options.delta = 0.34;
  StreamingResult result = IterSetCover(stream, options);
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(result.diagnostics.empty());
  for (const auto& diag : result.diagnostics) {
    EXPECT_LE(diag.uncovered_after, diag.uncovered_before);
    EXPECT_GT(diag.sample_size, 0u);
  }
  EXPECT_EQ(result.diagnostics.back().uncovered_after, 0u);
}

TEST(IterSetCoverTest, ExactOfflineSolverImprovesApproximation) {
  // With rho = 1 (exact offline), covers should be no larger than with
  // greedy on average; at minimum both must be feasible.
  PlantedInstance inst = MakeInstance(6, /*n=*/300, /*m=*/600, /*k=*/8);
  ExactSolver exact(200000);
  IterSetCoverOptions greedy_options;
  greedy_options.delta = 0.5;
  IterSetCoverOptions exact_options = greedy_options;
  exact_options.offline = &exact;
  SetStream s1(&inst.system), s2(&inst.system);
  StreamingResult with_greedy = IterSetCover(s1, greedy_options);
  StreamingResult with_exact = IterSetCover(s2, exact_options);
  ASSERT_TRUE(with_greedy.success);
  ASSERT_TRUE(with_exact.success);
  EXPECT_TRUE(IsFullCover(inst.system, with_exact.cover));
}

TEST(IterSetCoverTest, SpaceGrowsWithDelta) {
  // O~(m n^delta): larger delta => larger samples and more stored
  // projection words. Isolated on the correct guess k = OPT with a
  // small sample constant so the n^delta term is not clamped by the
  // residual size (at laptop scale the polylog factors dominate
  // otherwise; the bench shows the same effect at scale).
  PlantedInstance inst = MakeInstance(8, /*n=*/4000, /*m=*/2500, /*k=*/4);
  auto run = [&](double delta) {
    SetStream stream(&inst.system);
    IterSetCoverOptions options;
    options.delta = delta;
    options.sample_constant = 0.01;
    StreamingResult r = IterSetCoverSingleGuess(stream, 4, options);
    EXPECT_FALSE(r.diagnostics.empty());
    return std::pair(r.diagnostics[0].sample_size,
                     r.diagnostics[0].projection_words);
  };
  auto [sample_small, words_small] = run(0.2);
  auto [sample_large, words_large] = run(0.9);
  EXPECT_LT(sample_small, sample_large);
  EXPECT_LT(words_small, words_large);
}

TEST(IterSetCoverTest, SpaceStaysWellBelowInputSize) {
  // The whole point: strongly sublinear space on the working guess.
  // With the sampling actually engaged (small c), the footprint of the
  // k = OPT guess stays well under the input size.
  PlantedInstance inst = MakeInstance(9, /*n=*/4000, /*m=*/3000, /*k=*/4);
  SetStream stream(&inst.system);
  IterSetCoverOptions options;
  options.delta = 0.34;
  options.sample_constant = 0.01;
  StreamingResult result = IterSetCoverSingleGuess(stream, 4, options);
  EXPECT_LT(result.space_words_max_guess, inst.system.total_size() / 2);
}

TEST(IterSetCoverTest, SizeTestMultiplierAblation) {
  // Raising the threshold multiplier means fewer heavy picks; the
  // algorithm must still produce a feasible cover.
  PlantedInstance inst = MakeInstance(10);
  for (double mult : {0.5, 1.0, 2.0}) {
    SetStream stream(&inst.system);
    IterSetCoverOptions options;
    options.delta = 0.5;
    options.size_test_multiplier = mult;
    StreamingResult result = IterSetCover(stream, options);
    ASSERT_TRUE(result.success) << "multiplier " << mult;
  }
}

TEST(IterSetCoverTest, TrivialSingleSetInstance) {
  SetSystem::Builder b(16);
  std::vector<uint32_t> all;
  for (uint32_t i = 0; i < 16; ++i) all.push_back(i);
  b.AddSet(all);
  SetSystem system = std::move(b).Build();
  SetStream stream(&system);
  IterSetCoverOptions options;
  options.delta = 0.5;
  StreamingResult result = IterSetCover(stream, options);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cover.size(), 1u);
}

}  // namespace
}  // namespace streamcover
