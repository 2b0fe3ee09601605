// Stress and differential tests: cross-algorithm agreement over many
// random instances, exhaustive small-universe checks for the canonical
// rectangle splitter, exact-solver differential sweeps on structured
// families, and reduction identities at larger shapes than the unit
// tests use.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "baselines/iterative_greedy.h"
#include "baselines/threshold_greedy.h"
#include "commlb/isc_to_setcover.h"
#include "core/instance.h"
#include "core/iter_set_cover.h"
#include "core/solver_registry.h"
#include "geometry/canonical.h"
#include "offline/exact.h"
#include "offline/greedy.h"
#include "setsystem/generators.h"

namespace streamcover {
namespace {

// ---- cross-algorithm differential sweep -----------------------------

class DifferentialSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSweepTest, AllAlgorithmsFeasibleAndOrdered) {
  Rng rng(GetParam());
  // Random regime each run: sizes, planted cover, noise.
  const uint32_t n = 100 + static_cast<uint32_t>(rng.Uniform(400));
  const uint32_t k = 3 + static_cast<uint32_t>(rng.Uniform(12));
  const uint32_t m = k + 100 + static_cast<uint32_t>(rng.Uniform(500));
  PlantedOptions options;
  options.num_elements = n;
  options.num_sets = m;
  options.cover_size = k;
  options.noise_min_size = 1;
  options.noise_max_size = 1 + n / 10;
  options.planted_overlap = rng.UniformDouble() * 0.5;
  PlantedInstance inst = GeneratePlanted(options, rng);

  size_t store_all = 0;
  {
    Instance instance = Instance::WrapSystem(&inst.system, {"planted", ""});
    RunResult r = RunSolver("store_all_greedy", instance, RunOptions());
    ASSERT_TRUE(r.success);
    ASSERT_TRUE(IsFullCover(inst.system, r.cover));
    store_all = r.cover.size();
  }
  {
    SetStream s(&inst.system);
    BaselineResult r = IterativeGreedy(s);
    ASSERT_TRUE(r.success);
    ASSERT_TRUE(IsFullCover(inst.system, r.cover));
    // Pass-per-pick greedy is offline greedy up to tie-breaking (the
    // heap pops the largest id among equal gains, the pass keeps the
    // first seen), so sizes agree within a small additive slack.
    size_t lo = std::min(r.cover.size(), store_all);
    size_t hi = std::max(r.cover.size(), store_all);
    EXPECT_LE(hi - lo, 2 + lo / 10);
  }
  {
    SetStream s(&inst.system);
    BaselineResult r = ProgressiveGreedy(s);
    ASSERT_TRUE(r.success);
    ASSERT_TRUE(IsFullCover(inst.system, r.cover));
    // Thresholded greedy loses at most ~2x per halving level.
    EXPECT_LE(r.cover.size(), 4 * store_all + 4);
  }
  {
    SetStream s(&inst.system);
    IterSetCoverOptions algo;
    algo.delta = 0.5;
    algo.seed = GetParam();
    StreamingResult r = IterSetCover(s, algo);
    ASSERT_TRUE(r.success);
    ASSERT_TRUE(IsFullCover(inst.system, r.cover));
    EXPECT_GE(r.cover.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweepTest,
                         ::testing::Range<uint64_t>(1, 26));

// ---- exhaustive canonical-splitter check ----------------------------

// Every axis-parallel rectangle with corners snapped to the coordinate
// grid of a small point set, including duplicated x/y coordinates:
// Decompose must partition the trace exactly.
TEST(RectSplitterExhaustiveTest, AllSnappedRectanglesOnDuplicateGrid) {
  std::vector<Point> points;
  // 5x5 grid with duplicated columns and stacked points.
  const double coords[5] = {0, 1, 1, 2, 3};  // note duplicate x = 1
  for (double x : coords) {
    for (double y : coords) {
      points.push_back({x, y});
    }
  }
  RectSplitter splitter(points);
  std::vector<double> cuts = {-0.5, 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5};
  size_t checked = 0;
  for (size_t x1 = 0; x1 < cuts.size(); ++x1) {
    for (size_t x2 = x1; x2 < cuts.size(); ++x2) {
      for (size_t y1 = 0; y1 < cuts.size(); ++y1) {
        for (size_t y2 = y1; y2 < cuts.size(); ++y2) {
          Rect rect{cuts[x1], cuts[y1], cuts[x2], cuts[y2]};
          auto pieces = splitter.Decompose(rect);
          ASSERT_LE(pieces.size(), 2u);
          std::vector<uint32_t> merged;
          for (const auto& piece : pieces) {
            merged.insert(merged.end(), piece.begin(), piece.end());
          }
          std::sort(merged.begin(), merged.end());
          ASSERT_EQ(std::adjacent_find(merged.begin(), merged.end()),
                    merged.end());
          Shape shape = rect;
          ASSERT_EQ(merged, TraceOf(shape, points))
              << "rect [" << rect.x_min << "," << rect.x_max << "]x["
              << rect.y_min << "," << rect.y_max << "]";
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

// Canonical family boundedness: over ALL snapped rectangles with <= w
// points, the deduped family obeys the O(n w^2 log n) shape with a
// small constant.
TEST(RectSplitterExhaustiveTest, CanonicalFamilySizeBound) {
  Rng rng(3);
  std::vector<Point> points;
  const uint32_t n = 60;
  for (uint32_t i = 0; i < n; ++i) {
    points.push_back({rng.UniformDouble() * 10, rng.UniformDouble() * 10});
  }
  std::vector<double> xs, ys;
  for (const Point& p : points) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::sort(xs.begin(), xs.end());
  std::sort(ys.begin(), ys.end());

  const uint32_t w = 3;
  RectSplitter splitter(points);
  TraceStore store;
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = i; j < xs.size(); ++j) {
      for (size_t a = 0; a < ys.size(); ++a) {
        for (size_t b = a; b < ys.size(); ++b) {
          Rect rect{xs[i], ys[a], xs[j], ys[b]};
          Shape shape = rect;
          auto trace = TraceOf(shape, points);
          if (trace.empty() || trace.size() > w) continue;
          for (const auto& piece : splitter.Decompose(rect)) {
            store.Insert(piece);
          }
        }
      }
    }
  }
  // O(n w^2 log n) with constant 1 is already generous here.
  const double bound = static_cast<double>(n) * w * w *
                       std::log2(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(store.size()), bound);
  EXPECT_GT(store.size(), 0u);
}

// ---- exact solver differential sweeps --------------------------------

class ExactDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExactDifferentialTest, SparseInstancesOptimalAtPartitionSize) {
  // Disjoint-block sparse instances have OPT exactly ceil(n/s) when the
  // only full-size sets are the partition blocks.
  Rng rng(GetParam());
  PlantedInstance inst = GenerateDisjointBlocks(60, 6, 30, rng);
  OfflineResult r = ExactSolver().Solve(inst.system);
  ASSERT_TRUE(r.proven_optimal);
  EXPECT_EQ(r.cover.size(), 6u);
}

TEST_P(ExactDifferentialTest, ExactAlwaysWithinGreedy) {
  Rng rng(GetParam() * 17);
  SetSystem system = GenerateUniformRandom(
      24, 14 + static_cast<uint32_t>(rng.Uniform(6)), 0.25, rng);
  if (!IsCoverable(system)) GTEST_SKIP();
  OfflineResult greedy = GreedySolver().Solve(system);
  OfflineResult exact = ExactSolver().Solve(system);
  ASSERT_TRUE(exact.proven_optimal);
  EXPECT_LE(exact.cover.size(), greedy.cover.size());
  EXPECT_TRUE(IsFullCover(system, exact.cover));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDifferentialTest,
                         ::testing::Range<uint64_t>(1, 16));

// ---- reduction identities at larger shapes ---------------------------

class IscShapeSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(IscShapeSweepTest, IdentitiesAndWitnessAtScale) {
  auto [n, p] = GetParam();
  Rng rng(n * 31 + p);
  IscInstance isc = GenerateRandomIsc(n, p, 3, rng);
  IscReduction red = ReduceIscToSetCover(isc);
  EXPECT_EQ(red.system.num_elements(), (2 * p + 1) * 2 * n + 2 * p);
  EXPECT_EQ(red.system.num_sets(), (4 * p + 1) * n);
  EXPECT_TRUE(IsFullCover(red.system, red.witness_cover));
  EXPECT_EQ(red.witness_cover.size(), red.expected_opt);
  // Sparsity structure: R/T sets have exactly 2 elements.
  for (uint32_t id = 0; id < red.system.num_sets(); ++id) {
    const auto& d = red.set_descriptors[id];
    if (d.kind == IscSetKind::kR || d.kind == IscSetKind::kT ||
        d.kind == IscSetKind::kTMerged) {
      EXPECT_EQ(red.system.SetSize(id), 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IscShapeSweepTest,
    ::testing::Combine(::testing::Values(8u, 32u, 128u),
                       ::testing::Values(2u, 4u, 8u)));

// ---- long-haul determinism -------------------------------------------

TEST(DeterminismStressTest, FullPipelineStableAcrossRuns) {
  for (int run = 0; run < 3; ++run) {
    Rng rng(99);
    PlantedOptions options;
    options.num_elements = 500;
    options.num_sets = 1000;
    options.cover_size = 10;
    PlantedInstance inst = GeneratePlanted(options, rng);
    SetStream stream(&inst.system);
    IterSetCoverOptions algo;
    algo.delta = 0.34;
    algo.seed = 5;
    StreamingResult r = IterSetCover(stream, algo);
    static std::vector<uint32_t> reference;
    if (run == 0) {
      reference = r.cover.set_ids;
    } else {
      EXPECT_EQ(r.cover.set_ids, reference);
    }
  }
}

}  // namespace
}  // namespace streamcover
