// Tests for the canonical representation machinery (Definition 4.1,
// Lemmas 4.2/4.4): TraceStore dedup, RectSplitter's exact-partition
// property, the near-linear canonical family on the Figure 1.2
// pathology, and compCanonicalRep's per-range CanonicalRepBuilder.

#include <gtest/gtest.h>

#include <set>

#include "geometry/canonical.h"
#include "geometry/geom_generators.h"
#include "util/rng.h"

namespace streamcover {
namespace {

TEST(TraceStoreTest, DeduplicatesExactTraces) {
  TraceStore store;
  auto [id1, fresh1] = store.Insert({1, 2, 3});
  EXPECT_TRUE(fresh1);
  auto [id2, fresh2] = store.Insert({1, 2, 3});
  EXPECT_FALSE(fresh2);
  EXPECT_EQ(id2, id1);  // a repeat answers with the stored copy's id
  auto [id3, fresh3] = store.Insert({1, 2});
  EXPECT_TRUE(fresh3);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_words(), 5u);
  EXPECT_EQ(store.Get(id1), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(store.Get(id3), (std::vector<uint32_t>{1, 2}));
}

TEST(TraceStoreTest, EmptyTraceIsStorable) {
  TraceStore store;
  EXPECT_TRUE(store.Insert({}).second);
  EXPECT_FALSE(store.Insert({}).second);
  EXPECT_EQ(store.size(), 1u);
}

// Property: RectSplitter::Decompose returns <= 2 pieces whose disjoint
// union equals the rectangle's trace, for random points and rects.
class RectSplitterPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RectSplitterPropertyTest, PiecesPartitionTrace) {
  Rng rng(GetParam());
  std::vector<Point> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back(
        {rng.UniformDouble() * 100, rng.UniformDouble() * 100});
  }
  RectSplitter splitter(points);
  for (int trial = 0; trial < 200; ++trial) {
    double x1 = rng.UniformDouble() * 100, x2 = rng.UniformDouble() * 100;
    double y1 = rng.UniformDouble() * 100, y2 = rng.UniformDouble() * 100;
    Rect rect{std::min(x1, x2), std::min(y1, y2), std::max(x1, x2),
              std::max(y1, y2)};
    auto pieces = splitter.Decompose(rect);
    ASSERT_LE(pieces.size(), 2u);
    std::vector<uint32_t> merged;
    for (const auto& piece : pieces) {
      EXPECT_FALSE(piece.empty());
      merged.insert(merged.end(), piece.begin(), piece.end());
    }
    std::sort(merged.begin(), merged.end());
    // Disjointness: no duplicates after merge.
    EXPECT_EQ(std::adjacent_find(merged.begin(), merged.end()),
              merged.end());
    Shape shape = rect;
    EXPECT_EQ(merged, TraceOf(shape, points));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectSplitterPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RectSplitterTest, EmptyPointSet) {
  std::vector<Point> points;
  RectSplitter splitter(points);
  EXPECT_TRUE(splitter.Decompose(Rect{0, 0, 1, 1}).empty());
}

TEST(RectSplitterTest, SinglePoint) {
  std::vector<Point> points = {{5, 5}};
  RectSplitter splitter(points);
  auto pieces = splitter.Decompose(Rect{0, 0, 10, 10});
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], (std::vector<uint32_t>{0}));
}

TEST(RectSplitterTest, DuplicateXCoordinates) {
  // Vertical stack of points with identical x — rank intervals must
  // still capture exactly the x-eligible points.
  std::vector<Point> points = {{1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}};
  RectSplitter splitter(points);
  auto pieces = splitter.Decompose(Rect{1, 0.5, 2, 2});
  std::vector<uint32_t> merged;
  for (auto& piece : pieces) {
    merged.insert(merged.end(), piece.begin(), piece.end());
  }
  std::sort(merged.begin(), merged.end());
  EXPECT_EQ(merged, (std::vector<uint32_t>{1, 2, 4}));
}

TEST(Figure12CanonicalTest, QuadraticTracesCollapseToLinearFamily) {
  // The paper's headline geometric pathology: h^2 distinct 2-point
  // rectangles, but anchored splitting stores only O(n) canonical sets.
  const uint32_t n = 64;
  GeomInstance inst = GenerateFigure12(n);
  const uint32_t h = n / 2;

  RectSplitter splitter(inst.points);
  TraceStore store;
  std::set<std::vector<uint32_t>> raw_traces;
  for (uint32_t i = 0; i < h * h; ++i) {
    const Rect& rect = std::get<Rect>(inst.shapes[i]);
    raw_traces.insert(TraceOf(inst.shapes[i], inst.points));
    for (const auto& piece : splitter.Decompose(rect)) {
      store.Insert(piece);
    }
  }
  EXPECT_EQ(raw_traces.size(), h * h);  // quadratic distinct traces
  // Canonical family is near-linear (singleton pieces, one per point).
  EXPECT_LE(store.size(), 2u * n);
}

// compCanonicalRep over a whole shape family: every range fed to the
// builder as its trace on the sample, as algGeomSC's canonical pass
// does one streamed range at a time.
CanonicalRepBuilder BuildRep(const std::vector<Shape>& shapes,
                             const std::vector<Point>& sample, double w) {
  CanonicalRepBuilder builder(sample, w);
  for (const Shape& shape : shapes) builder.Add(shape, TraceOf(shape, sample));
  return builder;
}

TEST(CompCanonicalRepTest, CoversLightTracesOfAllShapeClasses) {
  Rng rng(7);
  GeomPlantedOptions options;
  options.num_points = 150;
  options.num_shapes = 120;
  options.cover_size = 6;
  options.shape_class = ShapeClass::kDisk;
  GeomInstance inst = GeneratePlantedGeom(options, rng);

  CanonicalRepBuilder rep = BuildRep(inst.shapes, inst.points, /*w=*/1e9);
  EXPECT_EQ(rep.oversize_ranges(), 0u);
  // Every nonempty trace appears exactly once (dedup).
  std::set<std::vector<uint32_t>> distinct;
  for (const Shape& s : inst.shapes) {
    auto t = TraceOf(s, inst.points);
    if (!t.empty()) distinct.insert(t);
  }
  EXPECT_EQ(rep.store().size(), distinct.size());
}

TEST(CompCanonicalRepTest, OversizeRangesCountedAndKept) {
  std::vector<Point> points = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  std::vector<Shape> shapes = {Disk{{1.5, 0}, 10}};  // covers all 4
  CanonicalRepBuilder rep = BuildRep(shapes, points, /*w=*/2.0);
  EXPECT_EQ(rep.oversize_ranges(), 1u);
  ASSERT_EQ(rep.store().size(), 1u);
  EXPECT_EQ(rep.store().Get(0).size(), 4u);  // stored wholesale
}

TEST(CompCanonicalRepTest, RectPiecesUnionToTraces) {
  Rng rng(9);
  std::vector<Point> points;
  for (int i = 0; i < 80; ++i) {
    points.push_back({rng.UniformDouble() * 50, rng.UniformDouble() * 50});
  }
  std::vector<Shape> shapes;
  for (int i = 0; i < 40; ++i) {
    double x = rng.UniformDouble() * 45, y = rng.UniformDouble() * 45;
    shapes.push_back(Rect{x, y, x + 5, y + 5});
  }
  CanonicalRepBuilder rep = BuildRep(shapes, points, /*w=*/1e9);
  // Each shape's trace must be expressible as a union of canonical sets.
  const auto& traces = rep.store().traces();
  std::set<std::vector<uint32_t>> canonical(traces.begin(), traces.end());
  RectSplitter splitter(points);
  for (const Shape& s : shapes) {
    const Rect& rect = std::get<Rect>(s);
    for (const auto& piece : splitter.Decompose(rect)) {
      EXPECT_TRUE(canonical.count(piece) > 0);
    }
  }
}

}  // namespace
}  // namespace streamcover
