// SolverRegistry: every registered solver must produce a feasible cover
// on a shared planted instance through the uniform RunSolver entry
// point, unknown names must fail cleanly, and the physical-scan
// accounting of the shared-scan scheduler must hold at every thread
// count.

#include "core/solver_registry.h"

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/dimv14.h"
#include "core/instance.h"
#include "core/iter_set_cover.h"
#include "core/workload_registry.h"
#include "geometry/geom_set_cover.h"
#include "geometry/range_space.h"
#include "gtest/gtest.h"
#include "setsystem/cover.h"
#include "setsystem/generators.h"
#include "util/cancel_token.h"
#include "util/rng.h"
#include "util/timer.h"

namespace streamcover {
namespace {

PlantedInstance SharedInstance() {
  PlantedOptions options;
  options.num_elements = 300;
  options.num_sets = 600;
  options.cover_size = 6;
  options.noise_max_size = 20;
  Rng rng(7);
  return GeneratePlanted(options, rng);
}

TEST(SolverRegistryTest, EnumeratesAtLeastEightSolvers) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  EXPECT_GE(names.size(), 8u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"iter", "store_all_greedy", "iterative_greedy",
        "progressive_greedy", "threshold_greedy", "dimv14",
        "streaming_max_cover", "geom"}) {
    EXPECT_TRUE(SolverRegistry::Global().Contains(expected))
        << "missing solver: " << expected;
  }
}

TEST(SolverRegistryTest, EveryAbstractSolverProducesFeasibleCover) {
  PlantedInstance inst = SharedInstance();
  for (const SolverRegistry::Entry* entry :
       SolverRegistry::Global().Entries()) {
    if (entry->kind == SolverRegistry::Kind::kGeometric) continue;
    Instance instance =
        Instance::WrapSystem(&inst.system, {"shared", "test"});
    RunOptions options;
    options.sample_constant = 0.05;
    options.seed = 11;
    RunResult r = RunSolver(entry->name, instance, options);
    ASSERT_TRUE(r.ok()) << entry->name << ": " << r.error;
    EXPECT_EQ(r.solver, entry->name);
    EXPECT_TRUE(r.success) << entry->name << " reported failure";
    EXPECT_TRUE(IsFullCover(inst.system, r.cover))
        << entry->name << " returned an infeasible cover of size "
        << r.cover.size();
    EXPECT_GT(r.passes, 0u) << entry->name;
    EXPECT_GT(r.space_words, 0u) << entry->name;
    // Shared-scan accounting invariants: the repository never pays more
    // than the sequential total, and at least the per-branch max.
    EXPECT_GT(r.physical_scans, 0u) << entry->name;
    EXPECT_LE(r.physical_scans, r.sequential_scans) << entry->name;
    EXPECT_GE(r.physical_scans, r.passes) << entry->name;
  }
}

TEST(SolverRegistryTest, UnknownNameFailsCleanly) {
  PlantedInstance inst = SharedInstance();
  Instance instance = Instance::WrapSystem(&inst.system, {"shared", ""});
  RunResult r = RunSolver("definitely-not-a-solver", instance);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.cover.set_ids.empty());
  // The diagnostic names the unknown solver and lists the alternatives.
  EXPECT_NE(r.error.find("definitely-not-a-solver"), std::string::npos);
  EXPECT_NE(r.error.find("iter"), std::string::npos);
  EXPECT_EQ(r.passes, 0u);
  EXPECT_EQ(r.physical_scans, 0u);
}

TEST(SolverRegistryTest, GeometricSolverWithoutGeometryFailsCleanly) {
  PlantedInstance inst = SharedInstance();
  Instance instance = Instance::WrapSystem(&inst.system, {"abstract", ""});
  RunResult r = RunSolver("geom", instance);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("geometr"), std::string::npos);
  EXPECT_EQ(r.passes, 0u);
}

TEST(SolverRegistryTest, ZeroThresholdPassesFailsCleanly) {
  // The sieve's own SC_CHECK stays for direct callers; through the
  // registry a zero pass count is a value, never an abort.
  PlantedInstance inst = SharedInstance();
  Instance instance = Instance::WrapSystem(&inst.system, {"shared", ""});
  RunOptions options;
  options.threshold_passes = 0;
  RunResult r = RunSolver("threshold_greedy", instance, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "threshold_passes must be >= 1, got 0");
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.cover.set_ids.empty());
  EXPECT_EQ(r.passes, 0u);
}

TEST(SolverRegistryTest, OutOfRangeDeltaFailsCleanly) {
  // iter, dimv14 and geom CHECK delta in (0, 1] and cast ceil(1/delta)
  // to a 64-bit iteration counter; through the registry each bad value
  // is an error value, never an abort or an out-of-range cast.
  PlantedInstance inst = SharedInstance();
  Instance abstract = Instance::WrapSystem(&inst.system, {"shared", ""});
  WorkloadParams params;
  params.n = 100;
  params.m = 200;
  std::optional<Instance> disks = MakeWorkload("geom_disks", params);
  ASSERT_TRUE(disks.has_value());
  for (const char* solver : {"iter", "dimv14", "geom"}) {
    Instance& instance = std::string(solver) == "geom" ? *disks : abstract;
    for (const double delta : {0.0, -1.0, 2.0, 1e-300}) {
      SCOPED_TRACE(std::string(solver) + " delta=" + std::to_string(delta));
      RunOptions options;
      options.delta = delta;
      RunResult r = RunSolver(solver, instance, options);
      EXPECT_FALSE(r.ok());
      EXPECT_NE(r.error.find("delta must be in (0, 1]"), std::string::npos)
          << r.error;
      EXPECT_TRUE(r.cover.set_ids.empty());
      EXPECT_EQ(r.passes, 0u);
    }
  }
}

TEST(SolverRegistryTest, IterStopsOnceNoIterationCanCover) {
  // Element 2 is in no set. Once an iteration has sampled the whole
  // residual, whatever it left uncovered is in no set, so the guess
  // stops instead of running all 2*ceil(1/delta) passes. At delta =
  // 0.001 the first sample of guess k = 1 holds 2 of the 3 elements, so
  // that guess stops after its second iteration. No guess succeeds
  // either way; the cover, success and space are what the full runs
  // gave (4 passes at delta = 0.5, 2,000 at delta = 0.001). The run
  // reports the guess that left the fewest elements uncovered: its
  // cover covers the 2 coverable elements.
  SetSystem::Builder builder(3);
  builder.AddSet(std::vector<uint32_t>{0, 1});
  builder.AddSet(std::vector<uint32_t>{1});
  SetSystem system = std::move(builder).Build();
  Instance instance = Instance::WrapSystem(&system, {"uncoverable", ""});
  struct Case {
    double delta;
    uint64_t passes;
    uint64_t space_words;
  };
  for (const Case& c : {Case{0.5, 2, 11}, Case{0.001, 4, 6}}) {
    SCOPED_TRACE("delta=" + std::to_string(c.delta));
    RunOptions options;
    options.delta = c.delta;
    RunResult r = RunSolver("iter", instance, options);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_FALSE(r.success);
    EXPECT_EQ(instance.CountCovered(r.cover), 2u);
    EXPECT_EQ(r.passes, c.passes);
    EXPECT_EQ(r.physical_scans, c.passes);
    EXPECT_EQ(r.space_words, c.space_words);
  }
}

TEST(SolverRegistryTest, NoSolverClaimsSuccessWithAnElementUncovered) {
  // Element 2 is in no set, so no cover exists. Every non-geometric
  // solver must answer, not fail, and report success == false — dimv14
  // too, whose base case drops the element from its frame.
  SetSystem::Builder builder(3);
  builder.AddSet(std::vector<uint32_t>{0, 1});
  builder.AddSet(std::vector<uint32_t>{1});
  SetSystem system = std::move(builder).Build();
  Instance instance = Instance::WrapSystem(&system, {"uncoverable", ""});
  for (const SolverRegistry::Entry* entry :
       SolverRegistry::Global().Entries()) {
    if (entry->kind == SolverRegistry::Kind::kGeometric) continue;
    RunResult r = RunSolver(entry->name, instance, RunOptions{});
    ASSERT_TRUE(r.ok()) << entry->name << ": " << r.error;
    EXPECT_FALSE(r.success) << entry->name;
    EXPECT_LT(instance.CountCovered(r.cover), 3u) << entry->name;
  }
}

TEST(SolverRegistryTest, EverySolverAnswersAnEmptyUniverse) {
  // n = 0, with no sets and with two empty ones: there is nothing to
  // cover, so every non-geometric solver returns an empty cover and
  // success. streaming_max_cover's default budget is n, here 0, which
  // used to abort the process.
  for (const uint32_t m : {0u, 2u}) {
    SetSystem::Builder builder(0);
    for (uint32_t s = 0; s < m; ++s) builder.AddSet(std::vector<uint32_t>{});
    SetSystem system = std::move(builder).Build();
    Instance instance = Instance::WrapSystem(&system, {"empty", ""});
    for (const SolverRegistry::Entry* entry :
         SolverRegistry::Global().Entries()) {
      if (entry->kind == SolverRegistry::Kind::kGeometric) continue;
      SCOPED_TRACE(entry->name + " m=" + std::to_string(m));
      RunResult r = RunSolver(entry->name, instance, RunOptions{});
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_TRUE(r.success);
      EXPECT_TRUE(r.cover.set_ids.empty());
    }
  }
}

TEST(SolverRegistryTest, GeometricSolverCoversPlantedGeomInstance) {
  Rng rng(5);
  GeomPlantedOptions geom_options;
  geom_options.num_points = 150;
  geom_options.num_shapes = 400;
  geom_options.cover_size = 4;
  geom_options.shape_class = ShapeClass::kDisk;
  GeomInstance geom = GeneratePlantedGeom(geom_options, rng);
  SetSystem ranges = BuildRangeSpace(geom.points, geom.shapes);

  // The points/shapes payload travels inside the Instance; runners get
  // it through RunContext, never through RunOptions.
  Instance instance =
      Instance::FromGeometry(std::move(geom), {"planted-disks", "test"});
  RunOptions options;
  options.delta = 0.25;
  options.sample_constant = 0.05;
  options.seed = 3;
  RunResult r = RunSolver("geom", instance, options);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(IsFullCover(ranges, r.cover));
}

TEST(SolverRegistryTest, SampleConstantDefaultsAgreeEverywhere) {
  // One documented default for the sample-size constant c: the
  // Figure 1.3 value 0.5. RunOptions used to say 0.05 while the
  // per-algorithm option structs said 0.5; a sweep that switched
  // between entry points silently changed sample sizes.
  EXPECT_DOUBLE_EQ(RunOptions{}.sample_constant,
                   IterSetCoverOptions{}.sample_constant);
  EXPECT_DOUBLE_EQ(RunOptions{}.sample_constant,
                   GeomSetCoverOptions{}.sample_constant);
  EXPECT_DOUBLE_EQ(RunOptions{}.sample_constant,
                   Dimv14Options{}.sample_constant);
  EXPECT_DOUBLE_EQ(RunOptions{}.sample_constant, 0.5);
}

TEST(SolverRegistryTest, ThreadCountNeverChangesResults) {
  // The scheduler's worker fan-out is an execution detail: every thread
  // count must produce the byte-identical cover and identical
  // accounting for every scheduler-driven solver.
  PlantedInstance inst = SharedInstance();
  for (const char* solver : {"iter", "dimv14", "threshold_greedy"}) {
    RunOptions options;
    options.sample_constant = 0.05;
    options.seed = 11;
    Instance instance = Instance::WrapSystem(&inst.system, {"shared", ""});
    RunResult serial = RunSolver(solver, instance, options);
    options.threads = 4;
    RunResult threaded = RunSolver(solver, instance, options);
    ASSERT_TRUE(serial.ok()) << solver << ": " << serial.error;
    ASSERT_TRUE(threaded.ok()) << solver << ": " << threaded.error;
    EXPECT_EQ(serial.cover.set_ids, threaded.cover.set_ids) << solver;
    EXPECT_EQ(serial.passes, threaded.passes) << solver;
    EXPECT_EQ(serial.sequential_scans, threaded.sequential_scans) << solver;
    EXPECT_EQ(serial.physical_scans, threaded.physical_scans) << solver;
    EXPECT_EQ(serial.space_words, threaded.space_words) << solver;
  }
}

TEST(SolverRegistryTest, SingleGuessProbeRunsThroughRegistry) {
  PlantedInstance inst = SharedInstance();
  Instance instance = Instance::WrapSystem(&inst.system, {"shared", ""});
  RunOptions options;
  options.sample_constant = 0.05;
  options.seed = 11;
  options.iter_guess = 8;
  RunResult r = RunSolver("iter", instance, options);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.projection_words_peak, 0u);
  // Single guess: one consumer on the scheduler, so logical passes,
  // sequential scans, and physical scans all coincide.
  EXPECT_EQ(r.sequential_scans, r.passes);
  EXPECT_EQ(r.physical_scans, r.passes);
}

TEST(SolverRegistryTest, MultiGuessRunCollapsesPhysicalScans) {
  // The headline of the shared-scan redesign: iterSetCover's ~log n
  // guesses ride the same physical scans, so the repository pays
  // per-guess-max passes, not the sequential sum.
  PlantedInstance inst = SharedInstance();
  Instance instance = Instance::WrapSystem(&inst.system, {"shared", ""});
  RunOptions options;
  options.sample_constant = 0.05;
  options.seed = 11;
  RunResult r = RunSolver("iter", instance, options);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.physical_scans, r.passes);
  EXPECT_GT(r.sequential_scans, r.physical_scans);
}

TEST(SolverRegistryTest, OfflineExactAnswersItsDeadline) {
  // At the default node cap this instance's branch-and-bound runs for
  // minutes, all of it after the run's one scan. The search polls the
  // run's token, and a token that fired after the last scan fails the
  // run with the deadline code instead of answering late with a cover.
  WorkloadParams params;
  params.n = 400;
  params.m = 900;
  params.max_set_size = 12;
  params.seed = 1;
  std::optional<Instance> instance = MakeWorkload("sparse", params);
  ASSERT_TRUE(instance.has_value());
  CancelToken token = CancelToken::AfterMillis(100);
  RunOptions options;
  options.cancel = &token;
  WallTimer timer;
  RunResult r = RunSolver("offline_exact", *instance, options);
  EXPECT_LT(timer.ElapsedMillis(), 2000.0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, kDeadlineExceededError);
  EXPECT_EQ(r.solver, "offline_exact");
  EXPECT_TRUE(r.cover.set_ids.empty());
}

TEST(SolverRegistryTest, RegisterRejectsDuplicatesAndEmptyEntries) {
  SolverRegistry registry;
  SolverRegistry::Entry entry;
  entry.name = "custom";
  entry.run = [](RunContext&) { return RunResult{}; };
  EXPECT_TRUE(registry.Register(entry));
  EXPECT_FALSE(registry.Register(entry)) << "duplicate name accepted";
  SolverRegistry::Entry no_runner;
  no_runner.name = "no-runner";
  EXPECT_FALSE(registry.Register(no_runner));
  SolverRegistry::Entry no_name;
  no_name.run = entry.run;
  EXPECT_FALSE(registry.Register(no_name));
  EXPECT_EQ(registry.size(), 1u);
}

}  // namespace
}  // namespace streamcover
