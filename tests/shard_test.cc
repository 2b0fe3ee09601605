// Tests for the src/shard/ subsystem: the partitioner's determinism,
// the per-shard bucket engine, candidate dedup in the merge, and the
// sharded_greedi solver family's invariants — shards=1 byte-identical
// to the unsharded `greedi` reference, bounded cover regression at
// higher shard counts, and identical covers across set sources
// (memory / text / mmap-binary) and scheduler thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver_registry.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "shard/merge_stage.h"
#include "shard/stream_partitioner.h"
#include "shard/threshold_bucket.h"
#include "stream/pass_scheduler.h"
#include "util/rng.h"

namespace streamcover {
namespace {

// ---------------------------------------------------------------------
// StreamPartitioner

TEST(StreamPartitionerTest, AssignmentIsDeterministic) {
  StreamPartitioner a(/*seed=*/42, /*shards=*/7);
  StreamPartitioner b(/*seed=*/42, /*shards=*/7);
  for (uint32_t id = 0; id < 10000; ++id) {
    ASSERT_EQ(a.ShardOf(id), b.ShardOf(id)) << id;
    ASSERT_LT(a.ShardOf(id), 7u) << id;
  }
}

TEST(StreamPartitionerTest, SeedChangesAssignment) {
  StreamPartitioner a(/*seed=*/1, /*shards=*/4);
  StreamPartitioner b(/*seed=*/2, /*shards=*/4);
  uint32_t diffs = 0;
  for (uint32_t id = 0; id < 4096; ++id) {
    if (a.ShardOf(id) != b.ShardOf(id)) ++diffs;
  }
  // Different seeds must induce an essentially independent partition:
  // expected agreement is 1/4, so well over half the ids move.
  EXPECT_GT(diffs, 2048u);
}

TEST(StreamPartitionerTest, OneShardMapsEverythingToZero) {
  StreamPartitioner p(/*seed=*/123, /*shards=*/1);
  for (uint32_t id = 0; id < 1000; ++id) {
    ASSERT_EQ(p.ShardOf(id), 0u);
  }
}

TEST(StreamPartitionerTest, PartitionIsRoughlyBalanced) {
  const uint32_t kShards = 8;
  const uint32_t kIds = 80000;
  StreamPartitioner p(/*seed=*/7, kShards);
  std::vector<uint32_t> counts(kShards, 0);
  for (uint32_t id = 0; id < kIds; ++id) ++counts[p.ShardOf(id)];
  const uint32_t expected = kIds / kShards;
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], expected * 9 / 10) << "shard " << s;
    EXPECT_LT(counts[s], expected * 11 / 10) << "shard " << s;
  }
}

TEST(StreamPartitionerTest, SubSeedsAreDistinctAndDeterministic) {
  StreamPartitioner p(/*seed=*/5, /*shards=*/16);
  std::vector<uint64_t> seeds;
  for (uint32_t s = 0; s < 16; ++s) seeds.push_back(p.SubSeed(s));
  for (uint32_t s = 0; s < 16; ++s) {
    for (uint32_t t = s + 1; t < 16; ++t) {
      EXPECT_NE(seeds[s], seeds[t]) << s << " vs " << t;
    }
  }
  StreamPartitioner q(/*seed=*/5, /*shards=*/16);
  for (uint32_t s = 0; s < 16; ++s) EXPECT_EQ(q.SubSeed(s), seeds[s]);
  // SubRng draws the stream its SubSeed defines.
  Rng r1 = p.SubRng(3);
  Rng r2 = q.SubRng(3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(r1.Next(), r2.Next());
}

// ---------------------------------------------------------------------
// ThresholdBucketEngine

PlantedInstance MakePlanted(uint32_t n, uint32_t m, uint32_t k,
                            uint64_t seed) {
  Rng rng(seed);
  PlantedOptions options;
  options.num_elements = n;
  options.num_sets = m;
  options.cover_size = k;
  return GeneratePlanted(options, rng);
}

TEST(ThresholdBucketEngineTest, OnePassThenDone) {
  PlantedInstance inst = MakePlanted(200, 400, 8, 11);
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream);
  ThresholdBucketEngine engine(stream.num_elements(), nullptr, 0, {});
  EXPECT_FALSE(engine.done());
  PassScheduler::SoloRun run = scheduler.DriveToCompletion(engine);
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(run.logical_passes, 1u);
  EXPECT_EQ(run.physical_scans, 1u);
  EXPECT_EQ(engine.counters().sets_seen, inst.system.num_sets());
  EXPECT_GT(engine.candidate_count(), 0u);
  EXPECT_GE(engine.counters().inserts, engine.counters().candidates);
}

TEST(ThresholdBucketEngineTest, CandidatesCoverWhatTheSubstreamCovers) {
  PlantedInstance inst = MakePlanted(300, 600, 10, 17);
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream);
  ThresholdBucketEngine engine(stream.num_elements(), nullptr, 0, {});
  scheduler.DriveToCompletion(engine);

  // The tau=1 bucket accepts any set with positive residual gain, so
  // the candidate union must cover every coverable element.
  std::vector<bool> covered(inst.system.num_elements(), false);
  for (size_t i = 0; i < engine.candidate_count(); ++i) {
    for (uint32_t e : engine.candidate_elems(i)) covered[e] = true;
  }
  std::vector<bool> coverable(inst.system.num_elements(), false);
  for (uint32_t s = 0; s < inst.system.num_sets(); ++s) {
    for (uint32_t e : inst.system.GetSet(s)) coverable[e] = true;
  }
  EXPECT_EQ(covered, coverable);
}

TEST(ThresholdBucketEngineTest, PartitionedEnginesSeeDisjointSubstreams) {
  PlantedInstance inst = MakePlanted(200, 500, 8, 23);
  StreamPartitioner partitioner(/*seed=*/9, /*shards=*/4);
  uint64_t total_seen = 0;
  std::vector<uint64_t> per_shard;
  for (uint32_t s = 0; s < 4; ++s) {
    SetStream stream(&inst.system);
    PassScheduler scheduler(stream);
    ThresholdBucketEngine engine(stream.num_elements(), &partitioner, s, {});
    scheduler.DriveToCompletion(engine);
    per_shard.push_back(engine.counters().sets_seen);
    total_seen += engine.counters().sets_seen;
  }
  EXPECT_EQ(total_seen, inst.system.num_sets());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(per_shard[s], 0u) << "shard " << s;
  }
}

// ---------------------------------------------------------------------
// MergeStage

TEST(MergeStageTest, DropsDuplicateCandidates) {
  const std::vector<uint32_t> a = {0, 1, 2};
  const std::vector<uint32_t> b = {2, 3};
  MergeStage merge(/*num_elements=*/4, /*num_sets=*/10, {});
  merge.AddCandidate(5, a);
  merge.AddCandidate(7, b);
  merge.AddCandidate(5, a);  // dup
  merge.AddCandidate(7, b);  // dup
  EXPECT_EQ(merge.candidates(), 2u);
  EXPECT_EQ(merge.duplicates_dropped(), 2u);
  MergeOutcome outcome = merge.Merge();
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.covered, 4u);
  EXPECT_EQ(outcome.cover.set_ids, (std::vector<uint32_t>{5, 7}));
}

TEST(MergeStageTest, GreedyPicksLargestFirstAndStops) {
  MergeStage merge(/*num_elements=*/6, /*num_sets=*/10, {});
  merge.AddCandidate(1, std::vector<uint32_t>{0, 1});
  merge.AddCandidate(2, std::vector<uint32_t>{0, 1, 2, 3});
  merge.AddCandidate(3, std::vector<uint32_t>{4, 5});
  MergeOutcome outcome = merge.Merge();
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.covered, 6u);
  // Set 2 dominates set 1; greedy never needs the subset.
  EXPECT_EQ(outcome.cover.set_ids, (std::vector<uint32_t>{2, 3}));
}

TEST(MergeStageTest, ReportsFailureWhenUncoverable) {
  MergeStage merge(/*num_elements=*/5, /*num_sets=*/4, {});
  merge.AddCandidate(0, std::vector<uint32_t>{0, 1});
  MergeOutcome outcome = merge.Merge();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.covered, 2u);
}

TEST(MergeStageTest, HonorsPartialCoverageTarget) {
  MergeStageOptions options;
  options.coverage_fraction = 0.5;
  MergeStage merge(/*num_elements=*/8, /*num_sets=*/4, options);
  merge.AddCandidate(0, std::vector<uint32_t>{0, 1, 2, 3});
  merge.AddCandidate(1, std::vector<uint32_t>{4, 5, 6, 7});
  MergeOutcome outcome = merge.Merge();
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(outcome.covered, 4u);
  EXPECT_EQ(outcome.cover.set_ids.size(), 1u);
}

// ---------------------------------------------------------------------
// sharded_greedi solver family

struct Sources {
  SetSystem system;
  std::string text_path;
  std::string binary_path;
};

Sources MakeSources(uint64_t seed) {
  PlantedInstance inst = MakePlanted(220, 450, 8, seed);
  Sources sources;
  sources.text_path = ::testing::TempDir() + "/shard_" +
                      std::to_string(seed) + ".txt";
  sources.binary_path = ::testing::TempDir() + "/shard_" +
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
      Instance::FromSystem(std::move(copy), {"shard", "memory"});
  return RunSolver(solver, instance, options);
}

RunResult SolveFromDisk(const std::string& path, const std::string& solver,
                        const RunOptions& options) {
  std::string error;
  std::optional<Instance> instance = Instance::FromFile(path, &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return RunSolver(solver, *instance, options);
}

TEST(ShardedGreediTest, OneShardIsByteIdenticalToGreediReference) {
  Sources sources = MakeSources(/*seed=*/51);
  for (uint64_t seed : {1u, 9u}) {
    RunOptions options;
    options.seed = seed;
    options.shards = 1;
    RunResult reference = SolveFromMemory(sources, "greedi", options);
    RunResult sharded = SolveFromMemory(sources, "sharded_greedi", options);
    ASSERT_TRUE(reference.ok()) << reference.error;
    ASSERT_TRUE(sharded.ok()) << sharded.error;
    EXPECT_TRUE(reference.success);
    EXPECT_TRUE(sharded.success);
    EXPECT_EQ(reference.cover.set_ids, sharded.cover.set_ids)
        << "seed=" << seed;
    EXPECT_EQ(reference.space_words, sharded.space_words);
  }
}

TEST(ShardedGreediTest, ShardingKeepsCoverQualityBounded) {
  Sources sources = MakeSources(/*seed=*/52);
  RunOptions options;
  options.seed = 3;
  RunResult reference = SolveFromMemory(sources, "greedi", options);
  ASSERT_TRUE(reference.ok()) << reference.error;
  ASSERT_TRUE(reference.success);
  for (uint32_t shards : {2u, 4u, 8u}) {
    options.shards = shards;
    RunResult sharded = SolveFromMemory(sources, "sharded_greedi", options);
    ASSERT_TRUE(sharded.ok()) << sharded.error;
    EXPECT_TRUE(sharded.success) << "shards=" << shards;
    EXPECT_LE(sharded.cover.set_ids.size(),
              3 * reference.cover.set_ids.size())
        << "shards=" << shards;
    // Accounting: one pass, S logical substream scans, one physical.
    EXPECT_EQ(sharded.passes, 1u);
    EXPECT_EQ(sharded.sequential_scans, shards);
    EXPECT_EQ(sharded.physical_scans, 1u);
    ASSERT_EQ(sharded.shard_stats.size(), shards);
    uint64_t seen = 0;
    for (const ShardStat& stat : sharded.shard_stats) {
      seen += stat.sets_seen;
    }
    EXPECT_EQ(seen, sources.system.num_sets());
    EXPECT_EQ(sharded.merge_stats.picked, sharded.cover.set_ids.size());
    EXPECT_EQ(sharded.merge_stats.duplicates_dropped, 0u);
  }
}

TEST(ShardedGreediTest, CoversIdenticalAcrossSourcesAndThreads) {
  Sources sources = MakeSources(/*seed=*/53);
  for (uint32_t shards : {1u, 4u}) {
    std::vector<uint32_t> expected_cover;
    bool first = true;
    for (uint32_t threads : {1u, 4u}) {
      RunOptions options;
      options.seed = 9;
      options.shards = shards;
      options.threads = threads;
      RunResult memory =
          SolveFromMemory(sources, "sharded_greedi", options);
      ASSERT_TRUE(memory.ok()) << memory.error;
      RunResult text =
          SolveFromDisk(sources.text_path, "sharded_greedi", options);
      ASSERT_TRUE(text.ok()) << text.error;
      RunResult binary =
          SolveFromDisk(sources.binary_path, "sharded_greedi", options);
      ASSERT_TRUE(binary.ok()) << binary.error;
      EXPECT_EQ(memory.cover.set_ids, text.cover.set_ids)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(memory.cover.set_ids, binary.cover.set_ids)
          << "shards=" << shards << " threads=" << threads;
      if (first) {
        expected_cover = memory.cover.set_ids;
        first = false;
      } else {
        // Thread count must not change the cover either.
        EXPECT_EQ(memory.cover.set_ids, expected_cover)
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

TEST(ShardedGreediTest, SameSeedSameShardsReproducesExactly) {
  Sources sources = MakeSources(/*seed=*/54);
  RunOptions options;
  options.seed = 77;
  options.shards = 4;
  RunResult a = SolveFromMemory(sources, "sharded_greedi", options);
  RunResult b = SolveFromMemory(sources, "sharded_greedi", options);
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (size_t s = 0; s < a.shard_stats.size(); ++s) {
    EXPECT_EQ(a.shard_stats[s].sets_seen, b.shard_stats[s].sets_seen);
    EXPECT_EQ(a.shard_stats[s].candidates, b.shard_stats[s].candidates);
    EXPECT_EQ(a.shard_stats[s].inserts, b.shard_stats[s].inserts);
    EXPECT_EQ(a.shard_stats[s].work_items, b.shard_stats[s].work_items);
  }
}

TEST(ShardedGreediTest, ZeroShardsFailsDispatch) {
  Sources sources = MakeSources(/*seed=*/56);
  RunOptions options;
  options.shards = 0;
  RunResult r = SolveFromMemory(sources, "sharded_greedi", options);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("shards"), std::string::npos) << r.error;
}

TEST(ShardedGreediTest, RegisteredInTheSolverDirectory) {
  EXPECT_TRUE(SolverRegistry::Global().Contains("greedi"));
  EXPECT_TRUE(SolverRegistry::Global().Contains("sharded_greedi"));
  // Unknown-solver diagnostics list the new family.
  Sources sources = MakeSources(/*seed=*/57);
  RunResult r = SolveFromMemory(sources, "no_such_solver", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("sharded_greedi"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace streamcover
