// Cross-module integration tests: full pipelines combining generators,
// IO, streams, all solvers, the geometric stack, and the lower-bound
// constructions; plus failure injection.

#include <gtest/gtest.h>

#include "baselines/iterative_greedy.h"
#include "baselines/threshold_greedy.h"
#include "commlb/isc_to_setcover.h"
#include "core/instance.h"
#include "core/iter_set_cover.h"
#include "core/solver_registry.h"
#include "geometry/geom_generators.h"
#include "geometry/geom_set_cover.h"
#include "geometry/range_space.h"
#include "offline/exact.h"
#include "offline/greedy.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "stream/mmap_set_source.h"

namespace streamcover {
namespace {

TEST(IntegrationTest, GenerateSaveLoadSolveRoundTrip) {
  Rng rng(1);
  PlantedOptions options;
  options.num_elements = 200;
  options.num_sets = 500;
  options.cover_size = 8;
  PlantedInstance inst = GeneratePlanted(options, rng);

  // A temp file named after the test: ctest runs the cases in parallel.
  const std::string path =
      ::testing::TempDir() + "/integration_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".txt";
  ASSERT_TRUE(SaveSetSystemToFile(inst.system, path));
  std::string error;
  auto loaded = LoadAnySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  SetStream stream(&*loaded);
  IterSetCoverOptions algo;
  algo.delta = 0.5;
  StreamingResult result = IterSetCover(stream, algo);
  ASSERT_TRUE(result.success);
  // Covers computed on the loaded copy apply to the original.
  EXPECT_TRUE(IsFullCover(inst.system, result.cover));
}

TEST(IntegrationTest, AllAlgorithmsAgreeOnFeasibility) {
  Rng rng(2);
  PlantedOptions options;
  options.num_elements = 300;
  options.num_sets = 700;
  options.cover_size = 10;
  PlantedInstance inst = GeneratePlanted(options, rng);

  std::vector<std::pair<std::string, size_t>> covers;
  {
    Instance instance = Instance::WrapSystem(&inst.system, {"planted", ""});
    RunResult r = RunSolver("store_all_greedy", instance, RunOptions());
    ASSERT_TRUE(r.success);
    covers.push_back({"store-all", r.cover.size()});
  }
  {
    SetStream s(&inst.system);
    BaselineResult r = IterativeGreedy(s);
    ASSERT_TRUE(r.success);
    covers.push_back({"iterative", r.cover.size()});
  }
  {
    SetStream s(&inst.system);
    BaselineResult r = ProgressiveGreedy(s);
    ASSERT_TRUE(r.success);
    covers.push_back({"progressive", r.cover.size()});
  }
  {
    SetStream s(&inst.system);
    BaselineResult r = PolynomialThresholdCover(s, 2);
    ASSERT_TRUE(r.success);
    covers.push_back({"cw16-p2", r.cover.size()});
  }
  {
    SetStream s(&inst.system);
    IterSetCoverOptions algo;
    algo.delta = 0.5;
    StreamingResult r = IterSetCover(s, algo);
    ASSERT_TRUE(r.success);
    covers.push_back({"iter-set-cover", r.cover.size()});
  }
  // Store-all greedy == offline greedy: the quality yardstick. Nothing
  // should be more than ~10x worse on this easy instance.
  size_t yardstick = covers[0].second;
  for (const auto& [name, size] : covers) {
    EXPECT_LE(size, yardstick * 10) << name;
    EXPECT_GE(size, inst.planted_cover.size() / 2) << name;
  }
}

TEST(IntegrationTest, GeometricPipelineMatchesAbstractPipeline) {
  // Solving the geometric instance directly and solving its abstract
  // range space must both produce feasible covers of similar quality.
  Rng rng(3);
  GeomPlantedOptions geo;
  geo.num_points = 250;
  geo.num_shapes = 500;
  geo.cover_size = 7;
  geo.shape_class = ShapeClass::kDisk;
  GeomInstance inst = GeneratePlantedGeom(geo, rng);
  SetSystem abstract = BuildRangeSpace(inst.points, inst.shapes);

  // algGeomSC streams that same range space, reading the shapes beside
  // it.
  const GeomDataset geometry{inst.points, inst.shapes};
  SetStream geom_stream(&abstract);
  PassScheduler geom_scheduler(geom_stream);
  GeomSetCoverOptions geom_algo;
  geom_algo.delta = 0.25;
  GeomStreamingResult geom_result =
      AlgGeomSC(geom_scheduler, geometry, geom_algo);
  ASSERT_TRUE(geom_result.success);
  EXPECT_TRUE(IsFullCover(abstract, geom_result.cover));

  SetStream abstract_stream(&abstract);
  IterSetCoverOptions abstract_algo;
  abstract_algo.delta = 0.25;
  StreamingResult abstract_result =
      IterSetCover(abstract_stream, abstract_algo);
  ASSERT_TRUE(abstract_result.success);

  EXPECT_LE(geom_result.cover.size(),
            10 * (abstract_result.cover.size() + 1));
}

TEST(IntegrationTest, LowerBoundInstanceSolvedByUpperBoundAlgorithm) {
  // The §5 gadget is still a SetCover instance; iterSetCover must cover
  // it (with its usual approximation, not optimally).
  Rng rng(4);
  IscInstance isc = GenerateRandomIsc(4, 2, 2, rng);
  IscReduction red = ReduceIscToSetCover(isc);
  SetStream stream(&red.system);
  IterSetCoverOptions algo;
  algo.delta = 0.5;
  StreamingResult result = IterSetCover(stream, algo);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(IsFullCover(red.system, result.cover));
  EXPECT_GE(result.cover.size(), red.expected_opt);  // Lemma 5.5
}

TEST(IntegrationTest, UncoverableInstanceReportsFailure) {
  SetSystem::Builder b(10);
  b.AddSet({0, 1, 2});
  b.AddSet({3, 4});
  SetSystem system = std::move(b).Build();  // 5..9 uncoverable
  SetStream stream(&system);
  IterSetCoverOptions algo;
  algo.delta = 0.5;
  StreamingResult result = IterSetCover(stream, algo);
  EXPECT_FALSE(result.success);
}

TEST(IntegrationTest, ExactSolverZeroBudgetStillFeasible) {
  // Failure injection: a node budget of zero must degrade to the greedy
  // incumbent, never to an infeasible cover.
  Rng rng(5);
  PlantedOptions options;
  options.num_elements = 100;
  options.num_sets = 200;
  options.cover_size = 5;
  PlantedInstance inst = GeneratePlanted(options, rng);
  ExactSolver solver(/*max_nodes=*/0);
  OfflineResult result = solver.Solve(inst.system);
  EXPECT_FALSE(result.proven_optimal);
  EXPECT_TRUE(IsFullCover(inst.system, result.cover));
}

}  // namespace
}  // namespace streamcover
