// Tests for algGeomSC (Figure 4.1 / Theorem 4.6): feasibility for all
// three shape classes, pass bound 3/delta + 1, O~(n) space behaviour,
// graceful handling of the Figure 1.2 pathology, and the shared-scan
// execution over the range space: every guess rides one scan per pass,
// thread counts never change results, and a failed scan stops the run.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "geometry/geom_generators.h"
#include "geometry/geom_set_cover.h"
#include "geometry/range_space.h"
#include "offline/greedy.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "util/cancel_token.h"

namespace streamcover {
namespace {

GeomInstance MakeInstance(ShapeClass cls, uint64_t seed,
                          uint32_t n = 400, uint32_t m = 800,
                          uint32_t k = 8) {
  Rng rng(seed);
  GeomPlantedOptions options;
  options.num_points = n;
  options.num_shapes = m;
  options.cover_size = k;
  options.shape_class = cls;
  return GeneratePlantedGeom(options, rng);
}

GeomDataset PayloadOf(const GeomInstance& inst) {
  return {inst.points, inst.shapes};
}

// Every guess, streamed over the payload's range space as RunSolver
// streams it.
GeomStreamingResult SolveAllGuesses(const GeomDataset& geometry,
                                    const GeomSetCoverOptions& options,
                                    uint32_t threads = 1) {
  const SetSystem ranges = BuildRangeSpace(geometry.points, geometry.shapes);
  SetStream stream(&ranges);
  PassScheduler scheduler(stream, threads);
  return AlgGeomSC(scheduler, geometry, options);
}

GeomStreamingResult SolveOneGuess(const GeomDataset& geometry, uint64_t k,
                                  const GeomSetCoverOptions& options) {
  const SetSystem ranges = BuildRangeSpace(geometry.points, geometry.shapes);
  SetStream stream(&ranges);
  PassScheduler scheduler(stream);
  return AlgGeomSCSingleGuess(scheduler, geometry, k, options);
}

class GeomSetCoverShapeTest
    : public ::testing::TestWithParam<std::tuple<ShapeClass, uint64_t>> {};

TEST_P(GeomSetCoverShapeTest, ProducesFeasibleCover) {
  auto [cls, seed] = GetParam();
  GeomInstance inst = MakeInstance(cls, seed);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = seed;
  GeomStreamingResult result = SolveAllGuesses(PayloadOf(inst), options);
  ASSERT_TRUE(result.success);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, result.cover));
  // Lemma 2.1's parallel composition made physical: one scan of the
  // range space serves every live guess.
  EXPECT_EQ(result.physical_scans, result.passes);
  EXPECT_GT(result.sequential_scans, result.passes);
}

TEST_P(GeomSetCoverShapeTest, ApproximationNearPlanted) {
  auto [cls, seed] = GetParam();
  GeomInstance inst = MakeInstance(cls, seed);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = seed;
  GeomStreamingResult result = SolveAllGuesses(PayloadOf(inst), options);
  ASSERT_TRUE(result.success);
  // O(rho)-approximation with rho = ln n greedy: generous constant.
  double rho = std::log(inst.points.size()) + 1;
  EXPECT_LE(result.cover.size(),
            4.0 * rho * inst.planted_cover.size());
}

INSTANTIATE_TEST_SUITE_P(
    ShapesSeeds, GeomSetCoverShapeTest,
    ::testing::Combine(::testing::Values(ShapeClass::kDisk,
                                         ShapeClass::kRect,
                                         ShapeClass::kFatTriangle),
                       ::testing::Values(1, 2)));

TEST(GeomSetCoverTest, PassBoundPerGuess) {
  GeomInstance inst = MakeInstance(ShapeClass::kDisk, 5);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = SolveOneGuess(PayloadOf(inst), 8, options);
  // 3 passes per iteration, <= 1/delta iterations, + final sweep.
  EXPECT_LE(result.passes,
            3 * static_cast<uint64_t>(std::ceil(1.0 / options.delta)) + 1);
  EXPECT_EQ(result.physical_scans, result.passes);
}

TEST(GeomSetCoverTest, SpaceIsNearLinearInPoints) {
  // Theorem 4.6: O~(n) space even with m >> n.
  GeomInstance inst =
      MakeInstance(ShapeClass::kDisk, 6, /*n=*/300, /*m=*/3000, /*k=*/6);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = SolveAllGuesses(PayloadOf(inst), options);
  ASSERT_TRUE(result.success);
  // The heaviest guess's footprint stays within polylog(n) * n words.
  const double n = inst.points.size();
  const double polylog = std::pow(std::log2(n), 3);
  EXPECT_LT(result.space_words_max_guess,
            static_cast<uint64_t>(8.0 * n * polylog));
}

TEST(GeomSetCoverTest, HandlesFigure12Pathology) {
  // Theta(n^2) distinct shallow rectangles: canonical splitting must
  // keep the stored family small and the cover near OPT = 2.
  GeomInstance inst = GenerateFigure12(64);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = SolveAllGuesses(PayloadOf(inst), options);
  ASSERT_TRUE(result.success);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, result.cover));
  // Canonical family stays near-linear in every iteration.
  for (const auto& diag : result.diagnostics) {
    EXPECT_LE(diag.canonical_sets, 4ull * inst.points.size());
  }
}

TEST(GeomSetCoverTest, DeterministicPerSeed) {
  // Same seed, same result — also when the scheduler splits the guesses
  // and their pass-end solves over four workers.
  const GeomDataset geometry = PayloadOf(MakeInstance(ShapeClass::kRect, 7));
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = 3;
  GeomStreamingResult a = SolveAllGuesses(geometry, options);
  GeomStreamingResult b = SolveAllGuesses(geometry, options);
  GeomStreamingResult threaded = SolveAllGuesses(geometry, options, 4);
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
  EXPECT_EQ(a.cover.set_ids, threaded.cover.set_ids);
  EXPECT_EQ(a.success, threaded.success);
  EXPECT_EQ(a.passes, threaded.passes);
  EXPECT_EQ(a.sequential_scans, threaded.sequential_scans);
  EXPECT_EQ(a.physical_scans, threaded.physical_scans);
  EXPECT_EQ(a.space_words_parallel, threaded.space_words_parallel);
  EXPECT_EQ(a.space_words_max_guess, threaded.space_words_max_guess);
  EXPECT_EQ(a.winning_k, threaded.winning_k);
}

TEST(GeomSetCoverTest, DiagnosticsTrackResidualShrink) {
  GeomInstance inst = MakeInstance(ShapeClass::kDisk, 8);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = SolveOneGuess(PayloadOf(inst), 8, options);
  ASSERT_FALSE(result.diagnostics.empty());
  for (const auto& diag : result.diagnostics) {
    EXPECT_LE(diag.uncovered_after, diag.uncovered_before);
  }
}

TEST(GeomSetCoverTest, CancelledStreamStopsDrivingPasses) {
  // A fired token fails the first scan of the range space under the
  // SetSource failure rule; neither entry point drives another round
  // (no CHECK on a half-matched pass 3, no later guess), at any thread
  // count.
  const GeomDataset geometry = PayloadOf(MakeInstance(ShapeClass::kDisk, 9));
  const SetSystem ranges = BuildRangeSpace(geometry.points, geometry.shapes);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  CancelToken token;
  token.Cancel();
  for (uint32_t threads : {1u, 4u}) {
    for (bool all_guesses : {true, false}) {
      SCOPED_TRACE(std::string(all_guesses ? "all guesses" : "k=8") +
                   " threads=" + std::to_string(threads));
      SetStream stream(&ranges);
      stream.set_cancel(&token);
      PassScheduler scheduler(stream, threads);
      GeomStreamingResult result =
          all_guesses ? AlgGeomSC(scheduler, geometry, options)
                      : AlgGeomSCSingleGuess(scheduler, geometry, 8, options);
      EXPECT_FALSE(result.success);
      EXPECT_TRUE(scheduler.stream_failed());
      EXPECT_EQ(stream.error(), kDeadlineExceededError);
      EXPECT_EQ(scheduler.physical_scans(), 1u);
      EXPECT_EQ(result.physical_scans, 1u);
      EXPECT_EQ(result.passes, 0u);
    }
  }
}

TEST(GeomSetCoverTest, SinglePointSingleShape) {
  const GeomDataset geometry{{{1, 1}}, {Disk{{1, 1}, 2}}};
  GeomSetCoverOptions options;
  GeomStreamingResult result = SolveAllGuesses(geometry, options);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cover.size(), 1u);
}

}  // namespace
}  // namespace streamcover
