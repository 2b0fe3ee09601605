// Offline solver tests: greedy correctness/approximation behaviour,
// LazyGreedy's target mask and stop rules, and exact
// branch-and-bound validated against brute force on random instances
// (property sweep).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "offline/exact.h"
#include "offline/greedy.h"
#include "offline/lazy_greedy.h"
#include "setsystem/cover.h"
#include "setsystem/generators.h"

namespace streamcover {
namespace {

// Smallest cover by exhaustive subset enumeration (m <= ~20).
size_t BruteForceOpt(const SetSystem& system) {
  const uint32_t m = system.num_sets();
  size_t best = SIZE_MAX;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    Cover c;
    for (uint32_t s = 0; s < m; ++s) {
      if (mask & (1u << s)) c.set_ids.push_back(s);
    }
    if (c.set_ids.size() >= best) continue;
    if (IsFullCover(system, c)) best = c.set_ids.size();
  }
  return best;
}

TEST(GreedySolverTest, CoversSimpleInstance) {
  SetSystem::Builder b(5);
  b.AddSet({0, 1, 2});
  b.AddSet({2, 3});
  b.AddSet({3, 4});
  SetSystem s = std::move(b).Build();
  OfflineResult r = GreedySolver().Solve(s);
  EXPECT_TRUE(IsFullCover(s, r.cover));
  EXPECT_LE(r.cover.size(), 3u);
}

TEST(GreedySolverTest, IgnoresUncoverableElements) {
  SetSystem::Builder b(4);
  b.AddSet({0, 1});  // elements 2, 3 in no set
  SetSystem s = std::move(b).Build();
  OfflineResult r = GreedySolver().Solve(s);
  EXPECT_EQ(r.cover.set_ids, (std::vector<uint32_t>{0}));
}

TEST(GreedySolverTest, EmptyInstance) {
  SetSystem::Builder b(0);
  SetSystem s = std::move(b).Build();
  OfflineResult r = GreedySolver().Solve(s);
  EXPECT_TRUE(r.cover.set_ids.empty());
}

TEST(LazyGreedyTest, TargetMaskRestrictsCover) {
  SetSystem::Builder b(6);
  b.AddSet({0, 1, 2});
  b.AddSet({3});
  b.AddSet({4, 5});
  SetSystem s = std::move(b).Build();
  DynamicBitset targets(6);
  targets.Set(3);
  LazyGreedyResult r = LazyGreedy::OverSets(s).Run(targets);
  EXPECT_EQ(r.picks, (std::vector<uint32_t>{1}));
  EXPECT_EQ(r.covered, 1u);
  EXPECT_TRUE(r.success);
}

// Three disjoint sets of sizes 3, 2, 1 over 6 elements: greedy takes
// them largest first.
SetSystem Staircase() {
  SetSystem::Builder b(6);
  b.AddSet({0, 1, 2});
  b.AddSet({3, 4});
  b.AddSet({5});
  return std::move(b).Build();
}

TEST(LazyGreedyTest, StopsWhenCoverageTargetReached) {
  const SetSystem s = Staircase();
  LazyGreedyResult r =
      LazyGreedy::OverSets(s).Run(DynamicBitset(6, true), /*required=*/4);
  EXPECT_EQ(r.picks, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(r.covered, 5u);
  EXPECT_TRUE(r.success);
}

TEST(LazyGreedyTest, HeapExhaustedBeforeTargetFails) {
  // Elements 6 and 7 are in no candidate: a target counting them can
  // never be met, so the run drains the heap and reports failure.
  SetSystem::Builder b(8);
  b.AddSet({0, 1, 2});
  b.AddSet({3, 4});
  b.AddSet({5});
  const SetSystem s = std::move(b).Build();
  LazyGreedyResult r =
      LazyGreedy::OverSets(s).Run(DynamicBitset(8, true), /*required=*/8);
  EXPECT_EQ(r.picks, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(r.covered, 6u);
  EXPECT_FALSE(r.success);
}

TEST(GreedySolverTest, AdversarialInstanceShowsLogGap) {
  // On the textbook adversarial family greedy picks the `levels` column
  // sets while OPT = 2 — the ln(n) gap the paper's rho tracks.
  PlantedInstance inst = GenerateGreedyAdversarial(6);
  OfflineResult r = GreedySolver().Solve(inst.system);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
  EXPECT_GE(r.cover.size(), 6u);  // greedy falls for every column set
}

TEST(GreedySolverTest, RhoIsLnN) {
  GreedySolver g;
  EXPECT_NEAR(g.Rho(1000), std::log(1000.0) + 1.0, 1e-12);
}

TEST(ExactSolverTest, OptimalOnAdversarialInstance) {
  PlantedInstance inst = GenerateGreedyAdversarial(5);
  OfflineResult r = ExactSolver().Solve(inst.system);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
  EXPECT_EQ(r.cover.size(), 2u);  // the two rows
}

TEST(ExactSolverTest, HandlesUncoverableElements) {
  SetSystem::Builder b(3);
  b.AddSet({0});
  SetSystem s = std::move(b).Build();
  OfflineResult r = ExactSolver().Solve(s);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.cover.set_ids, (std::vector<uint32_t>{0}));
}

TEST(ExactSolverTest, EmptyInstanceGivesEmptyCover) {
  SetSystem::Builder b(4);
  SetSystem s = std::move(b).Build();
  OfflineResult r = ExactSolver().Solve(s);
  EXPECT_TRUE(r.cover.set_ids.empty());
}

TEST(ExactSolverTest, NodeBudgetReportsNonOptimal) {
  // The adversarial family makes the greedy incumbent suboptimal, so a
  // one-node budget cannot prove optimality (the bounds cannot close
  // the incumbent-vs-OPT gap without search).
  PlantedInstance inst = GenerateGreedyAdversarial(6);
  OfflineResult r = ExactSolver(/*max_nodes=*/1).Solve(inst.system);
  EXPECT_FALSE(r.proven_optimal);
  // Still returns the greedy incumbent, which must be feasible.
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
}

TEST(ExactSolverTest, FiredTokenStopsTheSearchLikeTheNodeBudget) {
  // A sparse instance whose search runs for minutes at the default node
  // cap. With a token fired before Solve, the search stops at its first
  // poll (node 64) and returns the greedy incumbent, unproven.
  Rng rng(1);
  PlantedInstance inst = GenerateSparse(400, 900, 12, rng);
  CancelToken token;
  token.Cancel();
  OfflineResult r =
      ExactSolver(ExactSolver::kDefaultMaxNodes, &token).Solve(inst.system);
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_EQ(r.work, 64u);
  EXPECT_TRUE(IsFullCover(inst.system, r.cover));
}

class ExactVsBruteForceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactVsBruteForceTest, MatchesBruteForceOptimum) {
  Rng rng(GetParam());
  const uint32_t n = 12 + static_cast<uint32_t>(rng.Uniform(6));
  const uint32_t m = 10 + static_cast<uint32_t>(rng.Uniform(8));
  SetSystem s = GenerateUniformRandom(n, m, 0.3, rng);
  if (!IsCoverable(s)) GTEST_SKIP() << "instance not coverable";
  OfflineResult r = ExactSolver().Solve(s);
  ASSERT_TRUE(r.proven_optimal);
  EXPECT_TRUE(IsFullCover(s, r.cover));
  EXPECT_EQ(r.cover.size(), BruteForceOpt(s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsBruteForceTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(ExactSolverTest, ExactNeverWorseThanGreedy) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    PlantedOptions options;
    options.num_elements = 80;
    options.num_sets = 60;
    options.cover_size = 5;
    options.noise_max_size = 30;
    PlantedInstance inst = GeneratePlanted(options, rng);
    OfflineResult greedy = GreedySolver().Solve(inst.system);
    OfflineResult exact = ExactSolver().Solve(inst.system);
    if (exact.proven_optimal) {
      EXPECT_LE(exact.cover.size(), greedy.cover.size()) << "seed " << seed;
      EXPECT_TRUE(IsFullCover(inst.system, exact.cover));
    }
  }
}

}  // namespace
}  // namespace streamcover
