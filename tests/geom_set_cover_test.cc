// Tests for algGeomSC (Figure 4.1 / Theorem 4.6): feasibility for all
// three shape classes, pass bound 3/delta + 1, O~(n) space behaviour,
// and graceful handling of the Figure 1.2 pathology.

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/geom_generators.h"
#include "geometry/geom_set_cover.h"
#include "geometry/range_space.h"
#include "offline/greedy.h"
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

class GeomSetCoverShapeTest
    : public ::testing::TestWithParam<std::tuple<ShapeClass, uint64_t>> {};

TEST_P(GeomSetCoverShapeTest, ProducesFeasibleCover) {
  auto [cls, seed] = GetParam();
  GeomInstance inst = MakeInstance(cls, seed);
  ShapeStream stream(&inst.shapes);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = seed;
  GeomStreamingResult result = AlgGeomSC(stream, inst.points, options);
  ASSERT_TRUE(result.success);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, result.cover));
}

TEST_P(GeomSetCoverShapeTest, ApproximationNearPlanted) {
  auto [cls, seed] = GetParam();
  GeomInstance inst = MakeInstance(cls, seed);
  ShapeStream stream(&inst.shapes);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = seed;
  GeomStreamingResult result = AlgGeomSC(stream, inst.points, options);
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
  ShapeStream stream(&inst.shapes);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result =
      AlgGeomSCSingleGuess(stream, inst.points, 8, options);
  // 3 passes per iteration, <= 1/delta iterations, + final sweep.
  EXPECT_LE(result.passes,
            3 * static_cast<uint64_t>(std::ceil(1.0 / options.delta)) + 1);
}

TEST(GeomSetCoverTest, SpaceIsNearLinearInPoints) {
  // Theorem 4.6: O~(n) space even with m >> n.
  GeomInstance inst =
      MakeInstance(ShapeClass::kDisk, 6, /*n=*/300, /*m=*/3000, /*k=*/6);
  ShapeStream stream(&inst.shapes);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = AlgGeomSC(stream, inst.points, options);
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
  ShapeStream stream(&inst.shapes);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result = AlgGeomSC(stream, inst.points, options);
  ASSERT_TRUE(result.success);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, result.cover));
  // Canonical family stays near-linear in every iteration.
  for (const auto& diag : result.diagnostics) {
    EXPECT_LE(diag.canonical_sets, 4ull * inst.points.size());
  }
}

TEST(GeomSetCoverTest, DeterministicPerSeed) {
  GeomInstance inst = MakeInstance(ShapeClass::kRect, 7);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  options.seed = 3;
  ShapeStream s1(&inst.shapes), s2(&inst.shapes);
  GeomStreamingResult a = AlgGeomSC(s1, inst.points, options);
  GeomStreamingResult b = AlgGeomSC(s2, inst.points, options);
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
}

TEST(GeomSetCoverTest, DiagnosticsTrackResidualShrink) {
  GeomInstance inst = MakeInstance(ShapeClass::kDisk, 8);
  ShapeStream stream(&inst.shapes);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  GeomStreamingResult result =
      AlgGeomSCSingleGuess(stream, inst.points, 8, options);
  ASSERT_FALSE(result.diagnostics.empty());
  for (const auto& diag : result.diagnostics) {
    EXPECT_LE(diag.uncovered_after, diag.uncovered_before);
  }
}

TEST(GeomSetCoverTest, CancelledStreamStopsDrivingPasses) {
  // A fired token fails the first pass; neither entry point drives
  // another pass (no CHECK on a half-matched pass 3, no later guess).
  GeomInstance inst = MakeInstance(ShapeClass::kDisk, 9);
  GeomSetCoverOptions options;
  options.delta = 0.25;
  CancelToken token;
  token.Cancel();

  ShapeStream all_guesses(&inst.shapes);
  all_guesses.set_cancel(&token);
  GeomStreamingResult result = AlgGeomSC(all_guesses, inst.points, options);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(all_guesses.cancelled());
  EXPECT_EQ(all_guesses.passes(), 1u);

  ShapeStream one_guess(&inst.shapes);
  one_guess.set_cancel(&token);
  result = AlgGeomSCSingleGuess(one_guess, inst.points, 8, options);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(one_guess.cancelled());
  EXPECT_EQ(one_guess.passes(), 1u);
}

TEST(GeomSetCoverTest, SinglePointSingleShape) {
  std::vector<Point> points = {{1, 1}};
  std::vector<Shape> shapes = {Disk{{1, 1}, 2}};
  ShapeStream stream(&shapes);
  GeomSetCoverOptions options;
  GeomStreamingResult result = AlgGeomSC(stream, points, options);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.cover.size(), 1u);
}

}  // namespace
}  // namespace streamcover
