// Tests for geometric primitives, traces, range-space bridging, and the
// geometric generators.

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/geom_generators.h"
#include "geometry/primitives.h"
#include "geometry/range_space.h"
#include "setsystem/cover.h"

namespace streamcover {
namespace {

TEST(DiskTest, ContainsCenterAndBoundary) {
  Disk d{{0, 0}, 5};
  EXPECT_TRUE(d.Contains({0, 0}));
  EXPECT_TRUE(d.Contains({3, 4}));   // on the boundary
  EXPECT_TRUE(d.Contains({5, 0}));
  EXPECT_FALSE(d.Contains({5.1, 0}));
  EXPECT_FALSE(d.Contains({4, 4}));
}

TEST(RectTest, ClosedContainment) {
  Rect r{0, 0, 10, 4};
  EXPECT_TRUE(r.Contains({0, 0}));
  EXPECT_TRUE(r.Contains({10, 4}));
  EXPECT_TRUE(r.Contains({5, 2}));
  EXPECT_FALSE(r.Contains({-0.1, 2}));
  EXPECT_FALSE(r.Contains({5, 4.1}));
  EXPECT_TRUE(r.IsValid());
  EXPECT_FALSE((Rect{3, 0, 1, 1}).IsValid());
}

TEST(FatTriangleTest, ContainsInteriorAndVertices) {
  FatTriangle t{{0, 0}, {10, 0}, {5, 8}};
  EXPECT_TRUE(t.Contains({5, 3}));
  EXPECT_TRUE(t.Contains({0, 0}));
  EXPECT_TRUE(t.Contains({10, 0}));
  EXPECT_TRUE(t.Contains({5, 8}));
  EXPECT_FALSE(t.Contains({0, 5}));
  EXPECT_FALSE(t.Contains({5, -1}));
}

TEST(FatTriangleTest, OrientationIrrelevant) {
  FatTriangle ccw{{0, 0}, {10, 0}, {5, 8}};
  FatTriangle cw{{0, 0}, {5, 8}, {10, 0}};
  for (double x = 0; x <= 10; x += 1.7) {
    for (double y = -1; y <= 9; y += 1.3) {
      EXPECT_EQ(ccw.Contains({x, y}), cw.Contains({x, y}))
          << "(" << x << "," << y << ")";
    }
  }
}

TEST(FatTriangleTest, FatnessRatio) {
  // Equilateral: longest edge a, height a*sqrt(3)/2 => ratio 2/sqrt(3).
  double h = std::sqrt(3.0) / 2.0 * 10.0;
  FatTriangle equilateral{{0, 0}, {10, 0}, {5, h}};
  EXPECT_NEAR(equilateral.FatnessRatio(), 2.0 / std::sqrt(3.0), 1e-9);
  // A degenerate sliver is arbitrarily non-fat.
  FatTriangle sliver{{0, 0}, {100, 0}, {50, 0.01}};
  EXPECT_GT(sliver.FatnessRatio(), 1000.0);
}

TEST(ShapeVariantTest, DispatchesContainment) {
  Shape disk = Disk{{0, 0}, 1};
  Shape rect = Rect{0, 0, 1, 1};
  Shape tri = FatTriangle{{0, 0}, {2, 0}, {1, 2}};
  EXPECT_TRUE(ShapeContains(disk, {0.5, 0.5}));
  EXPECT_TRUE(ShapeContains(rect, {0.5, 0.5}));
  EXPECT_TRUE(ShapeContains(tri, {1.0, 0.5}));
  EXPECT_STREQ(ShapeClassName(disk), "disk");
  EXPECT_STREQ(ShapeClassName(rect), "rect");
  EXPECT_STREQ(ShapeClassName(tri), "fat-triangle");
}

TEST(TraceTest, ComputesSortedTrace) {
  std::vector<Point> points = {{0, 0}, {2, 2}, {5, 5}, {1, 1}};
  Shape rect = Rect{0.5, 0.5, 3, 3};
  EXPECT_EQ(TraceOf(rect, points), (std::vector<uint32_t>{1, 3}));
}

TEST(RangeSpaceTest, MatchesBruteForceTraces) {
  Rng rng(3);
  GeomPlantedOptions options;
  options.num_points = 60;
  options.num_shapes = 30;
  options.cover_size = 4;
  GeomInstance inst = GeneratePlantedGeom(options, rng);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  ASSERT_EQ(system.num_sets(), 30u);
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    auto set = system.GetSet(s);
    EXPECT_EQ(std::vector<uint32_t>(set.begin(), set.end()),
              TraceOf(inst.shapes[s], inst.points));
  }
}

class PlantedGeomTest
    : public ::testing::TestWithParam<std::tuple<ShapeClass, uint64_t>> {};

TEST_P(PlantedGeomTest, PlantedShapesCoverAllPoints) {
  auto [cls, seed] = GetParam();
  Rng rng(seed);
  GeomPlantedOptions options;
  options.num_points = 300;
  options.num_shapes = 600;
  options.cover_size = 9;
  options.shape_class = cls;
  GeomInstance inst = GeneratePlantedGeom(options, rng);
  ASSERT_EQ(inst.planted_cover.size(), 9u);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, Cover{inst.planted_cover}));
}

TEST_P(PlantedGeomTest, PlantedTrianglesAreFat) {
  auto [cls, seed] = GetParam();
  if (cls != ShapeClass::kFatTriangle) GTEST_SKIP();
  Rng rng(seed);
  GeomPlantedOptions options;
  options.num_points = 100;
  options.num_shapes = 200;
  options.cover_size = 5;
  options.shape_class = cls;
  GeomInstance inst = GeneratePlantedGeom(options, rng);
  for (const Shape& shape : inst.shapes) {
    const FatTriangle* t = std::get_if<FatTriangle>(&shape);
    ASSERT_NE(t, nullptr);
    EXPECT_LE(t->FatnessRatio(), 3.0);  // near-equilateral
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesSeeds, PlantedGeomTest,
    ::testing::Combine(::testing::Values(ShapeClass::kDisk,
                                         ShapeClass::kRect,
                                         ShapeClass::kFatTriangle),
                       ::testing::Values(1, 2, 3)));

TEST(Figure12Test, EveryRectangleContainsExactlyTwoPoints) {
  const uint32_t n = 32;
  GeomInstance inst = GenerateFigure12(n);
  const uint32_t h = n / 2;
  ASSERT_EQ(inst.points.size(), n);
  ASSERT_EQ(inst.shapes.size(), h * h + 2);
  for (uint32_t i = 0; i < h * h; ++i) {
    auto trace = TraceOf(inst.shapes[i], inst.points);
    ASSERT_EQ(trace.size(), 2u) << "rect " << i;
    EXPECT_LT(trace[0], h);        // one top point
    EXPECT_GE(trace[1], h);        // one bottom point
  }
}

TEST(Figure12Test, AllTracesDistinct) {
  const uint32_t n = 20;
  GeomInstance inst = GenerateFigure12(n);
  const uint32_t h = n / 2;
  std::set<std::vector<uint32_t>> traces;
  for (uint32_t i = 0; i < h * h; ++i) {
    traces.insert(TraceOf(inst.shapes[i], inst.points));
  }
  EXPECT_EQ(traces.size(), h * h);  // Theta(n^2) distinct shallow ranges
}

TEST(Figure12Test, PlantedCoverIsFeasible) {
  GeomInstance inst = GenerateFigure12(24);
  SetSystem system = BuildRangeSpace(inst.points, inst.shapes);
  EXPECT_TRUE(IsFullCover(system, Cover{inst.planted_cover}));
  EXPECT_EQ(inst.planted_cover.size(), 2u);
}

}  // namespace
}  // namespace streamcover
