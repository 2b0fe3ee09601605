// Instance: the workload half of the execution surface. Geometric
// payloads travel inside the instance (solvers that need them are
// rejected cleanly when absent — no raw RunOptions::geometry pointers),
// file-backed instances re-parse the repository per pass and agree with
// their in-memory twins, and every NewStream() gets an independent pass
// counter.

#include "core/instance.h"

#include <cstdio>
#include <string>

#include "core/solver_registry.h"
#include "core/workload_registry.h"
#include "gtest/gtest.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "util/rng.h"

namespace streamcover {
namespace {

PlantedInstance SmallPlanted(uint64_t seed = 7) {
  PlantedOptions options;
  options.num_elements = 300;
  options.num_sets = 600;
  options.cover_size = 6;
  options.noise_max_size = 20;
  Rng rng(seed);
  return GeneratePlanted(options, rng);
}

RunOptions SmallRunOptions() {
  RunOptions options;
  options.sample_constant = 0.05;
  options.seed = 11;
  return options;
}

TEST(InstanceTest, CarriesMetadataAndPlantedBound) {
  PlantedInstance planted = SmallPlanted();
  const size_t bound = planted.planted_cover.size();
  Instance instance = Instance::FromPlanted(
      std::move(planted), {"small-planted", "generator:test"});
  EXPECT_EQ(instance.name(), "small-planted");
  EXPECT_EQ(instance.provenance(), "generator:test");
  EXPECT_EQ(instance.num_elements(), 300u);
  EXPECT_EQ(instance.num_sets(), 600u);
  EXPECT_EQ(instance.opt_bound(), bound);
  EXPECT_FALSE(instance.has_geometry());
  ASSERT_NE(instance.materialized(), nullptr);
}

TEST(InstanceTest, NewStreamGetsFreshPassCounterEveryTime) {
  Instance instance =
      Instance::FromPlanted(SmallPlanted(), {"planted", ""});
  SetStream first = instance.NewStream();
  first.ForEachSet([](const SetView&) {});
  first.ForEachSet([](const SetView&) {});
  EXPECT_EQ(first.passes(), 2u);
  // A second stream starts at zero — trials never inherit or reset a
  // shared counter.
  SetStream second = instance.NewStream();
  EXPECT_EQ(second.passes(), 0u);
  second.ForEachSet([](const SetView&) {});
  EXPECT_EQ(second.passes(), 1u);
  EXPECT_EQ(first.passes(), 2u);
}

TEST(InstanceTest, GeometricSolverRejectedWithoutPayloadViaInstance) {
  // The rejection comes from the Instance carrying no geometry — the
  // caller never touches a raw GeomDataset pointer.
  Instance instance =
      Instance::FromPlanted(SmallPlanted(), {"abstract-planted", ""});
  RunResult r = RunSolver("geom", instance, SmallRunOptions());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("geometric"), std::string::npos);
  EXPECT_NE(r.error.find("abstract-planted"), std::string::npos);
}

TEST(InstanceTest, GeometricInstanceDrivesGeometricAndAbstractSolvers) {
  WorkloadParams params;
  params.n = 150;
  params.m = 400;
  params.k = 4;
  params.seed = 5;
  std::string error;
  std::optional<Instance> instance =
      MakeWorkload("geom_disks", params, &error);
  ASSERT_TRUE(instance.has_value()) << error;
  EXPECT_TRUE(instance->has_geometry());
  ASSERT_NE(instance->geometry(), nullptr);
  EXPECT_EQ(instance->geometry()->points.size(), 150u);

  RunOptions options = SmallRunOptions();
  options.delta = 0.25;
  RunResult geom = RunSolver("geom", *instance, options);
  ASSERT_TRUE(geom.ok()) << geom.error;
  EXPECT_TRUE(geom.success);
  EXPECT_TRUE(instance->VerifyCover(geom.cover));

  // Abstract solvers stream the materialized range space of the SAME
  // instance — one workload, every solver kind.
  RunResult abstract = RunSolver("store_all_greedy", *instance, options);
  ASSERT_TRUE(abstract.ok()) << abstract.error;
  EXPECT_TRUE(abstract.success);
  EXPECT_TRUE(instance->VerifyCover(abstract.cover));
}

TEST(InstanceTest, FileBackedInstanceMatchesInMemoryResults) {
  PlantedInstance planted = SmallPlanted(13);
  const std::string path =
      testing::TempDir() + "/instance_test_roundtrip.txt";
  ASSERT_TRUE(SaveSetSystemToFile(planted.system, path));

  std::string error;
  std::optional<Instance> from_file = Instance::FromFile(path, &error);
  ASSERT_TRUE(from_file.has_value()) << error;
  EXPECT_EQ(from_file->num_elements(), 300u);
  EXPECT_EQ(from_file->num_sets(), 600u);
  EXPECT_EQ(from_file->materialized(), nullptr)
      << "file-backed instances must stay on disk";

  Instance in_memory =
      Instance::FromPlanted(std::move(planted), {"mem", ""});

  // Identical options => identical covers and identical pass counts,
  // even though every pass of the file-backed run re-parses the file.
  RunOptions options = SmallRunOptions();
  RunResult file_run = RunSolver("iter", *from_file, options);
  RunResult mem_run = RunSolver("iter", in_memory, options);
  ASSERT_TRUE(file_run.ok()) << file_run.error;
  ASSERT_TRUE(mem_run.ok()) << mem_run.error;
  EXPECT_TRUE(file_run.success);
  EXPECT_EQ(file_run.cover.set_ids, mem_run.cover.set_ids);
  EXPECT_EQ(file_run.passes, mem_run.passes);
  EXPECT_EQ(file_run.sequential_scans, mem_run.sequential_scans);
  EXPECT_EQ(file_run.physical_scans, mem_run.physical_scans);
  // The multi-guess run shares scans: the file is re-parsed once per
  // physical scan, which collapses to the per-guess pass max.
  EXPECT_EQ(file_run.physical_scans, file_run.passes);
  EXPECT_LT(file_run.physical_scans, file_run.sequential_scans);
  EXPECT_TRUE(from_file->VerifyCover(file_run.cover));

  // Re-running on the same file-backed instance reproduces the result:
  // per-run streams mean no pass-counter state leaks between trials.
  RunResult again = RunSolver("iter", *from_file, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.cover.set_ids, file_run.cover.set_ids);
  EXPECT_EQ(again.passes, file_run.passes);
  std::remove(path.c_str());
}

TEST(InstanceTest, FromFileFailsCleanlyOnMissingFile) {
  std::string error;
  std::optional<Instance> instance =
      Instance::FromFile("/nonexistent/streamcover.txt", &error);
  EXPECT_FALSE(instance.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(InstanceTest, WrapSystemDoesNotOwn) {
  PlantedInstance planted = SmallPlanted();
  Instance instance =
      Instance::WrapSystem(&planted.system, {"wrapped", "external"});
  EXPECT_EQ(instance.materialized(), &planted.system);
  RunResult r = RunSolver("store_all_greedy", instance, SmallRunOptions());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.instance, "wrapped");
}

TEST(WorkloadRegistryTest, EnumeratesBuiltinFamilies) {
  for (const char* expected :
       {"planted", "sparse", "zipf", "adversarial", "disjoint_blocks",
        "geom_disks", "geom_rects", "geom_triangles", "figure12", "file"}) {
    EXPECT_TRUE(WorkloadRegistry::Global().Contains(expected))
        << "missing workload: " << expected;
  }
}

TEST(WorkloadRegistryTest, UnknownNameFailsCleanly) {
  std::string error;
  std::optional<Instance> instance =
      MakeWorkload("no-such-workload", WorkloadParams{}, &error);
  EXPECT_FALSE(instance.has_value());
  EXPECT_NE(error.find("no-such-workload"), std::string::npos);
  EXPECT_NE(error.find("planted"), std::string::npos);
}

TEST(WorkloadRegistryTest, FileWorkloadNeedsPath) {
  std::string error;
  std::optional<Instance> instance =
      MakeWorkload("file", WorkloadParams{}, &error);
  EXPECT_FALSE(instance.has_value());
  EXPECT_NE(error.find("path"), std::string::npos);
}

TEST(WorkloadRegistryTest, OutOfRangeParamsFailWithTheBoundNotAnAbort) {
  // One spec per family that would break a generator's SC_CHECK; the
  // factory must refuse it with the bound, never abort.
  struct Case {
    const char* family;
    WorkloadParams params;
    const char* bound;
  };
  WorkloadParams planted;  // the serve repro: k > m
  planted.n = 200;
  planted.m = 4;
  planted.k = 5;
  WorkloadParams sparse;  // fewer sets than partition blocks
  sparse.n = 1000;
  sparse.m = 10;
  sparse.max_set_size = 32;
  WorkloadParams zipf;
  zipf.max_set_size = 0;
  WorkloadParams adversarial;
  adversarial.levels = 0;
  WorkloadParams blocks;
  blocks.n = 3;
  blocks.k = 5;
  WorkloadParams geom;
  geom.k = 0;
  const Case cases[] = {
      {"planted", planted, "m >= k"},
      {"sparse", sparse, "m >= ceil(n / max_set_size) = 32"},
      {"zipf", zipf, "max_set_size >= 1"},
      {"adversarial", adversarial, "levels in [1, 30]"},
      {"disjoint_blocks", blocks, "n >= k"},
      {"geom_disks", geom, "k >= 1"},
      {"geom_rects", geom, "k >= 1"},
      {"geom_triangles", geom, "k >= 1"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(MakeWorkload(c.family, c.params, &error).has_value())
        << c.family;
    EXPECT_NE(error.find(c.bound), std::string::npos)
        << c.family << ": " << error;
  }
}

TEST(WorkloadRegistryTest, EveryGeneratedWorkloadIsRunnable) {
  WorkloadParams params;
  params.n = 120;
  params.m = 240;
  params.k = 4;
  params.levels = 4;
  params.seed = 3;
  for (const WorkloadRegistry::Entry* entry :
       WorkloadRegistry::Global().Entries()) {
    if (entry->kind == WorkloadRegistry::Kind::kFile) continue;
    std::string error;
    std::optional<Instance> instance =
        MakeWorkload(entry->name, params, &error);
    ASSERT_TRUE(instance.has_value()) << entry->name << ": " << error;
    RunOptions options = SmallRunOptions();
    RunResult r = RunSolver("store_all_greedy", *instance, options);
    ASSERT_TRUE(r.ok()) << entry->name << ": " << r.error;
    EXPECT_TRUE(r.success) << entry->name;
    EXPECT_TRUE(instance->VerifyCover(r.cover)) << entry->name;
  }
}

}  // namespace
}  // namespace streamcover
