// Differential parity suite for the disk path: every registered
// streaming solver must produce the identical cover whether the
// repository lives in memory, in a text file (FileSetSource), or in a
// binary file behind MmapSetSource — serially and multiplexed over 2,
// 3 and 4 scheduler threads. This is the acceptance gate for the
// binary format: a decode bug anywhere shows up as a cover diff here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver_registry.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "util/rng.h"

namespace streamcover {
namespace {

struct Sources {
  SetSystem system;
  std::string text_path;
  std::string binary_path;
};

Sources MakeSources(uint64_t seed) {
  Rng rng(seed);
  PlantedOptions options;
  options.num_elements = 220;
  options.num_sets = 450;
  options.cover_size = 8;
  PlantedInstance inst = GeneratePlanted(options, rng);

  Sources sources;
  sources.text_path = ::testing::TempDir() + "/parity_" +
                      std::to_string(seed) + ".txt";
  sources.binary_path = ::testing::TempDir() + "/parity_" +
                        std::to_string(seed) + ".bin";
  EXPECT_TRUE(SaveSetSystemToFile(inst.system, sources.text_path));
  std::string error;
  EXPECT_TRUE(
      WriteBinarySetSystem(inst.system, sources.binary_path, &error))
      << error;
  sources.system = std::move(inst.system);
  return sources;
}

RunResult SolveFromMemory(const Sources& sources, const std::string& solver,
                          const RunOptions& options) {
  SetSystem copy = sources.system;  // FromSystem takes ownership
  Instance instance =
      Instance::FromSystem(std::move(copy), {"parity", "memory"});
  return RunSolver(solver, instance, options);
}

RunResult SolveFromDisk(const std::string& path, const std::string& solver,
                        const RunOptions& options) {
  std::string error;
  std::optional<Instance> instance = Instance::FromFile(path, &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return RunSolver(solver, *instance, options);
}

// The streaming portfolio: the paper's algorithm plus every Figure 1.1
// baseline that runs through the registry.
const char* kSolvers[] = {"iter", "dimv14", "store_all_greedy",
                          "iterative_greedy", "progressive_greedy",
                          "threshold_greedy"};

/// Every accounting field of two runs of one solver agrees.
void ExpectSameAccounting(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.sequential_scans, b.sequential_scans);
  EXPECT_EQ(a.physical_scans, b.physical_scans);
  EXPECT_EQ(a.space_words, b.space_words);
  EXPECT_EQ(a.projection_words_peak, b.projection_words_peak);
  EXPECT_EQ(a.gain_updates, b.gain_updates);
  EXPECT_EQ(a.sets_touched, b.sets_touched);
}

class SourceParityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SourceParityTest, CoversIdenticalAcrossSourcesAndThreads) {
  Sources sources = MakeSources(/*seed=*/40 + GetParam());
  for (const char* solver : kSolvers) {
    RunResult serial;  // memory, threads=1, scan_threads=1
    // Threads 2 and 3 claim the consumers unevenly.
    for (uint32_t threads : {1u, 2u, 3u, 4u}) {
    for (uint32_t scan_threads : {1u, 4u}) {
      RunOptions options;
      options.seed = 9;
      options.delta = 0.5;
      options.threads = threads;
      options.scan_threads = scan_threads;

      const std::string tag = std::string(solver) + " threads=" +
                              std::to_string(threads) + " scan_threads=" +
                              std::to_string(scan_threads);
      RunResult memory = SolveFromMemory(sources, solver, options);
      ASSERT_TRUE(memory.ok()) << tag << ": " << memory.error;
      RunResult text =
          SolveFromDisk(sources.text_path, solver, options);
      ASSERT_TRUE(text.ok()) << tag << ": " << text.error;
      RunResult binary =
          SolveFromDisk(sources.binary_path, solver, options);
      ASSERT_TRUE(binary.ok()) << tag << ": " << binary.error;

      // Byte-identical covers and identical accounting — not just
      // equal sizes — against every other source and the serial
      // in-memory run. scan_threads > 1 routes the binary source
      // through the pipelined chunk decoder, which must be invisible
      // here.
      if (threads == 1 && scan_threads == 1) serial = memory;
      {
        SCOPED_TRACE(tag + " (memory vs text)");
        ExpectSameAccounting(memory, text);
      }
      {
        SCOPED_TRACE(tag + " (memory vs binary)");
        ExpectSameAccounting(memory, binary);
      }
      {
        SCOPED_TRACE(tag + " (serial memory vs binary)");
        ExpectSameAccounting(serial, binary);
      }
    }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SourceParityTest,
                         ::testing::Values(0u, 1u, 2u));

TEST(SourceParityTest, PartialCoverageAgreesAcrossSources) {
  Sources sources = MakeSources(/*seed=*/77);
  RunOptions options;
  options.seed = 5;
  options.coverage_fraction = 0.9;
  for (const char* solver : {"iter", "progressive_greedy"}) {
    RunResult memory = SolveFromMemory(sources, solver, options);
    RunResult binary =
        SolveFromDisk(sources.binary_path, solver, options);
    ASSERT_TRUE(memory.ok()) << memory.error;
    ASSERT_TRUE(binary.ok()) << binary.error;
    EXPECT_EQ(memory.cover.set_ids, binary.cover.set_ids) << solver;
  }
}

}  // namespace
}  // namespace streamcover
