// Parity pins for the columnar hot path (CSR SetViews + projection
// arena). The refactor moved the physical representation of sets and
// projections — the logical algorithm, its RNG draws, and its
// SpaceTracker charges must be unchanged. Two layers of pinning:
//
//  * a from-scratch vector-path reference: the seed GuessConsumer
//    transcribed with per-set scratch vectors and per-projection vector
//    storage, driven directly over SetStream passes. The library's
//    arena-backed single guess must match it byte for byte — cover ids,
//    success, peak space, and the per-iteration projection-word
//    watermarks Lemma 2.2 charges;
//  * thread-count invariance through the registry: `iter` on planted,
//    zipf, and file-backed workloads, and `geom` on the four geometric
//    workloads, at --threads 1 and 4 must agree on covers, space_words,
//    and projection_words_peak exactly;
//  * every registered non-geometric solver at --threads 4 (the
//    threaded path splits the consumers over the scheduler's workers)
//    must agree with its serial run on covers, passes, scans, and space
//    exactly. The kernels themselves are pinned against their
//    reference loops in cover_kernels_test.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/iter_set_cover.h"
#include "core/solver_registry.h"
#include "core/workload_registry.h"
#include "gtest/gtest.h"
#include "offline/greedy.h"
#include "setsystem/binary_io.h"
#include "setsystem/io.h"
#include "stream/sampling.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/mathutil.h"
#include "util/rng.h"

namespace streamcover {
namespace {

// The seed-era single-guess iterSetCover: fresh std::vector per stored
// projection, vector-of-pairs projection table, sequential two-pass
// iterations over the stream. Charges its SpaceTracker identically to
// the historical implementation; every divergence between this and the
// arena path is a parity break.
StreamingResult VectorPathSingleGuess(SetStream& stream, uint64_t k,
                                      const IterSetCoverOptions& options) {
  SC_CHECK(!options.final_sweep && !options.early_exit);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;
  const uint32_t n = stream.num_elements();
  const uint32_t m = stream.num_sets();
  const double rho = offline.Rho(n);
  const uint64_t iterations =
      static_cast<uint64_t>(std::ceil(1.0 / options.delta) + 1e-9);
  const uint64_t allowed_uncovered =
      AllowedUncovered(n, options.coverage_fraction);
  Rng rng(options.seed ^ (k * 0x9e3779b97f4a7c15ULL));

  SpaceTracker tracker;
  const uint64_t passes_before = stream.passes();
  DynamicBitset uncovered(n, true);
  tracker.Charge(uncovered.WordCount());
  Cover sol;
  std::vector<IterSetCoverIterationDiag> diagnostics;

  for (uint64_t iter = 0; iter < iterations; ++iter) {
    const uint64_t uncovered_count = uncovered.Count();
    if (uncovered_count <= allowed_uncovered) break;
    IterSetCoverIterationDiag diag;
    diag.iteration = static_cast<uint32_t>(iter + 1);
    diag.uncovered_before = uncovered_count;

    const uint64_t sample_size = IterSetCoverSampleSize(
        options.sample_constant, rho, k, n, options.delta, m,
        uncovered_count);
    std::vector<uint32_t> sample =
        SampleFromBitset(uncovered, sample_size, rng);
    diag.sample_size = sample.size();
    tracker.Charge(sample.size());

    DynamicBitset live(n);
    for (uint32_t e : sample) live.Set(e);
    tracker.Charge(live.WordCount());

    const double threshold = options.size_test_multiplier *
                             static_cast<double>(sample.size()) /
                             static_cast<double>(k);

    // Pass 1 (Size Test) with the seed representation: scratch filter
    // vector, fresh vector per stored projection.
    std::vector<uint32_t> heavy_picks;
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>> projections;
    uint64_t projection_words = 0;
    std::vector<uint32_t> scratch;
    stream.ForEachSet([&](const SetView& set) {
      scratch.clear();
      for (uint32_t e : set.elems) {
        if (live.Test(e)) scratch.push_back(e);
      }
      if (scratch.empty()) return;
      if (static_cast<double>(scratch.size()) >= threshold) {
        heavy_picks.push_back(set.id);
        tracker.Charge(1);
        for (uint32_t e : scratch) live.Reset(e);
      } else {
        projection_words += scratch.size() + 1;
        tracker.Charge(scratch.size() + 1);
        projections.emplace_back(set.id, scratch);
      }
    });
    diag.heavy_picked = heavy_picks.size();
    diag.projection_words = projection_words;
    for (uint32_t id : heavy_picks) sol.set_ids.push_back(id);

    // Offline solve on the sampled sub-instance.
    std::vector<uint32_t> live_elems;
    for (uint32_t e : sample) {
      if (live.Test(e)) live_elems.push_back(e);
    }
    size_t picked_before_offline = sol.set_ids.size();
    if (!live_elems.empty()) {
      std::unordered_map<uint32_t, uint32_t> reindex;
      reindex.reserve(live_elems.size() * 2);
      for (uint32_t i = 0; i < live_elems.size(); ++i) {
        reindex[live_elems[i]] = i;
      }
      SetSystem::Builder sub_builder(
          static_cast<uint32_t>(live_elems.size()));
      std::vector<uint32_t> original_ids;
      for (auto& [id, proj] : projections) {
        std::vector<uint32_t> mapped;
        mapped.reserve(proj.size());
        for (uint32_t e : proj) {
          auto it = reindex.find(e);
          if (it != reindex.end()) mapped.push_back(it->second);
        }
        if (mapped.empty()) continue;
        sub_builder.AddSet(mapped);
        original_ids.push_back(id);
      }
      SetSystem sub = std::move(sub_builder).Build();
      OfflineResult offline_result = offline.Solve(sub);
      const size_t take = offline_result.cover.size();
      diag.offline_picked = take;
      for (size_t i = 0; i < take; ++i) {
        sol.set_ids.push_back(original_ids[offline_result.cover.set_ids[i]]);
        tracker.Charge(1);
      }
    }
    tracker.Release(projection_words);
    tracker.Release(sample.size());
    tracker.Release(live.WordCount());

    // Pass 2: recompute the residual from this iteration's picks.
    DynamicBitset picked_this_iter(m);
    for (size_t i = picked_before_offline - diag.heavy_picked;
         i < sol.set_ids.size(); ++i) {
      picked_this_iter.Set(sol.set_ids[i]);
    }
    tracker.Charge(picked_this_iter.WordCount());
    stream.ForEachSet([&](const SetView& set) {
      if (!picked_this_iter.Test(set.id)) return;
      for (uint32_t e : set.elems) uncovered.Reset(e);
    });
    tracker.Release(picked_this_iter.WordCount());
    diag.uncovered_after = uncovered.Count();
    diagnostics.push_back(diag);
  }

  StreamingResult result;
  result.success = uncovered.Count() <= allowed_uncovered;
  tracker.Release(uncovered.WordCount());
  sol.Deduplicate();
  result.cover = std::move(sol);
  result.passes = stream.passes() - passes_before;
  result.sequential_scans = result.passes;
  result.physical_scans = result.passes;
  result.space_words_parallel = tracker.peak_words();
  result.space_words_max_guess = tracker.peak_words();
  result.winning_k = k;
  result.diagnostics = std::move(diagnostics);
  return result;
}

IterSetCoverOptions ParityOptions(uint64_t seed = 7) {
  IterSetCoverOptions options;
  options.sample_constant = 0.05;
  options.seed = seed;
  return options;
}

void ExpectGuessParity(const StreamingResult& arena,
                       const StreamingResult& reference) {
  EXPECT_EQ(arena.cover.set_ids, reference.cover.set_ids);
  EXPECT_EQ(arena.success, reference.success);
  EXPECT_EQ(arena.passes, reference.passes);
  EXPECT_EQ(arena.space_words_max_guess, reference.space_words_max_guess);
  ASSERT_EQ(arena.diagnostics.size(), reference.diagnostics.size());
  for (size_t i = 0; i < arena.diagnostics.size(); ++i) {
    EXPECT_EQ(arena.diagnostics[i].projection_words,
              reference.diagnostics[i].projection_words)
        << "iteration " << i + 1;
    EXPECT_EQ(arena.diagnostics[i].sample_size,
              reference.diagnostics[i].sample_size)
        << "iteration " << i + 1;
    EXPECT_EQ(arena.diagnostics[i].heavy_picked,
              reference.diagnostics[i].heavy_picked)
        << "iteration " << i + 1;
    EXPECT_EQ(arena.diagnostics[i].offline_picked,
              reference.diagnostics[i].offline_picked)
        << "iteration " << i + 1;
  }
}

Instance MakeRegistered(const char* family, uint64_t seed) {
  WorkloadParams params;
  params.n = 300;
  params.m = 600;
  params.k = 6;
  params.seed = seed;
  std::string error;
  std::optional<Instance> instance = MakeWorkload(family, params, &error);
  SC_CHECK(instance.has_value());
  return std::move(*instance);
}

TEST(HotpathParityTest, ArenaSingleGuessMatchesVectorPathReference) {
  for (const char* family : {"planted", "zipf"}) {
    Instance instance = MakeRegistered(family, 5);
    for (uint64_t k : {1ULL, 8ULL, 64ULL}) {
      SetStream arena_stream = instance.NewStream();
      StreamingResult arena =
          IterSetCoverSingleGuess(arena_stream, k, ParityOptions());
      SetStream reference_stream = instance.NewStream();
      StreamingResult reference =
          VectorPathSingleGuess(reference_stream, k, ParityOptions());
      SCOPED_TRACE(std::string(family) + " k=" + std::to_string(k));
      ExpectGuessParity(arena, reference);
    }
  }
}

TEST(HotpathParityTest, FileBackedArenaGuessMatchesVectorPathReference) {
  Instance generated = MakeRegistered("planted", 9);
  const std::string path = testing::TempDir() + "/hotpath_parity.txt";
  ASSERT_TRUE(SaveSetSystemToFile(*generated.materialized(), path));
  std::string error;
  std::optional<Instance> instance = Instance::FromFile(path, &error);
  ASSERT_TRUE(instance.has_value()) << error;

  SetStream arena_stream = instance->NewStream();
  StreamingResult arena =
      IterSetCoverSingleGuess(arena_stream, 8, ParityOptions());
  SetStream reference_stream = instance->NewStream();
  StreamingResult reference =
      VectorPathSingleGuess(reference_stream, 8, ParityOptions());
  ExpectGuessParity(arena, reference);
  std::remove(path.c_str());
}

/// Every RunResult field but the wall-clock ones (duration_ms and the
/// merge's duration_ms).
void ExpectRunParity(const RunResult& a, const RunResult& b) {
  ASSERT_TRUE(a.ok()) << a.error;
  ASSERT_TRUE(b.ok()) << b.error;
  EXPECT_EQ(a.solver, b.solver);
  EXPECT_EQ(a.instance, b.instance);
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.sequential_scans, b.sequential_scans);
  EXPECT_EQ(a.physical_scans, b.physical_scans);
  EXPECT_EQ(a.space_words, b.space_words);
  EXPECT_EQ(a.projection_words_peak, b.projection_words_peak);
  EXPECT_EQ(a.gain_updates, b.gain_updates);
  EXPECT_EQ(a.sets_touched, b.sets_touched);
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (size_t i = 0; i < a.shard_stats.size(); ++i) {
    const ShardStat& x = a.shard_stats[i];
    const ShardStat& y = b.shard_stats[i];
    EXPECT_EQ(x.shard, y.shard);
    EXPECT_EQ(x.sets_seen, y.sets_seen);
    EXPECT_EQ(x.candidates, y.candidates);
    EXPECT_EQ(x.inserts, y.inserts);
    EXPECT_EQ(x.work_items, y.work_items);
  }
  EXPECT_EQ(a.merge_stats.candidates, b.merge_stats.candidates);
  EXPECT_EQ(a.merge_stats.duplicates_dropped,
            b.merge_stats.duplicates_dropped);
  EXPECT_EQ(a.merge_stats.picked, b.merge_stats.picked);
}

TEST(HotpathParityTest, ThreadedRegistryRunsAreByteIdentical) {
  // Threads 2 and 3 split the consumers unevenly over the scheduler's
  // pool; every count must land on the serial run.
  for (const char* family : {"planted", "zipf"}) {
    Instance instance = MakeRegistered(family, 3);
    RunOptions serial;
    serial.sample_constant = 0.05;
    for (const char* solver : {"iter", "dimv14"}) {
      RunResult a = RunSolver(solver, instance, serial);
      if (std::string(solver) == "iter") {
        EXPECT_GT(a.projection_words_peak, 0u);
      }
      for (const uint32_t threads : {2u, 3u, 4u}) {
        RunOptions threaded = serial;
        threaded.threads = threads;
        RunResult b = RunSolver(solver, instance, threaded);
        SCOPED_TRACE(std::string(family) + " x " + solver +
                     " x threads=" + std::to_string(threads));
        ExpectRunParity(a, b);
      }
    }
  }
  // algGeomSC's guesses ride the same scheduler over the range space:
  // one physical scan per pass at every thread count.
  for (const char* family :
       {"geom_disks", "geom_rects", "geom_triangles", "figure12"}) {
    Instance instance = MakeRegistered(family, 3);
    RunOptions serial;
    serial.sample_constant = 0.05;
    serial.delta = 0.25;
    RunResult a = RunSolver("geom", instance, serial);
    EXPECT_TRUE(a.success);
    EXPECT_EQ(a.physical_scans, a.passes);
    for (const uint32_t threads : {2u, 3u, 4u}) {
      RunOptions threaded = serial;
      threaded.threads = threads;
      RunResult b = RunSolver("geom", instance, threaded);
      SCOPED_TRACE(std::string(family) + " x threads=" +
                   std::to_string(threads));
      ExpectRunParity(a, b);
      EXPECT_EQ(b.physical_scans, b.passes);
    }
  }
}

TEST(HotpathParityTest, ThreadedRunsAreByteIdenticalAcrossSolvers) {
  // Every registered non-geometric solver at threads 4 against its
  // serial run. The dense kernels run at whatever SIMD tier this host
  // detects, on both sides.
  for (const char* family : {"planted", "zipf"}) {
    Instance instance = MakeRegistered(family, 6);
    for (const SolverRegistry::Entry* entry :
         SolverRegistry::Global().Entries()) {
      if (entry->kind == SolverRegistry::Kind::kGeometric) continue;
      RunOptions serial;
      serial.sample_constant = 0.05;
      RunResult reference = RunSolver(entry->name, instance, serial);
      RunOptions threaded = serial;
      threaded.threads = 4;
      RunResult run = RunSolver(entry->name, instance, threaded);
      SCOPED_TRACE(std::string(family) + " x " + entry->name);
      ExpectRunParity(reference, run);
    }
  }
}

TEST(HotpathParityTest, ThreadedEarlyExitRunsAreByteIdentical) {
  // threads=4 splits the guess consumers over the scheduler's workers
  // while early_exit retires guesses between rounds; the threaded run
  // must land on the serial run's result.
  Instance instance = MakeRegistered("planted", 8);
  RunOptions base;
  base.sample_constant = 0.05;
  base.early_exit = true;
  RunResult serial = RunSolver("iter", instance, base);
  RunOptions threaded = base;
  threaded.threads = 4;
  ExpectRunParity(serial, RunSolver("iter", instance, threaded));
}

TEST(HotpathParityTest, ThreadedFileBackedRunsAreByteIdentical) {
  // A text file and a SCOVRB01 file of one instance, at every thread
  // count from 1 to 4: each threaded run equals its own serial run.
  Instance generated = MakeRegistered("planted", 4);
  const std::string text = testing::TempDir() + "/hotpath_parity_file.txt";
  const std::string binary = testing::TempDir() + "/hotpath_parity_file.bin";
  ASSERT_TRUE(SaveSetSystemToFile(*generated.materialized(), text));
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(*generated.materialized(), binary, &error))
      << error;
  for (const std::string& path : {text, binary}) {
    std::optional<Instance> instance = Instance::FromFile(path, &error);
    ASSERT_TRUE(instance.has_value()) << error;
    for (const char* solver : {"iter", "dimv14"}) {
      RunOptions serial;
      serial.sample_constant = 0.05;
      RunResult a = RunSolver(solver, *instance, serial);
      for (const uint32_t threads : {2u, 3u, 4u}) {
        RunOptions threaded = serial;
        threaded.threads = threads;
        RunResult b = RunSolver(solver, *instance, threaded);
        SCOPED_TRACE(path + " x " + solver + " x threads=" +
                     std::to_string(threads));
        ExpectRunParity(a, b);
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace streamcover
