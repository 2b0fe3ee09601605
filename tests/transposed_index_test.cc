// TransposedIndex / GainTracker — the output-sensitive gain machinery.
//
// The Builder's CSR must match brute-force element→sets membership, the
// tracker must start from the gains it is given and its decremental
// gains must match kernel recomputation after any cover sequence (the
// fuzz), and the LazyGreedy runs behind GreedySolver
// and MergeStage must pick exactly what a textbook per-round argmax
// picks — including when some merge candidates cross the dense-storage
// threshold — while their work counters stay output-sensitive.

#include "setsystem/transposed_index.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "offline/greedy.h"
#include "reference_kernels.h"
#include "setsystem/generators.h"
#include "setsystem/set_system.h"
#include "shard/merge_stage.h"
#include "util/cover_kernels.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace streamcover {
namespace {

SetSystem RandomSystem(uint32_t n, uint32_t m, Rng& rng,
                       uint32_t max_size = 12) {
  SetSystem::Builder builder(n);
  for (uint32_t s = 0; s < m; ++s) {
    const uint32_t size =
        static_cast<uint32_t>(rng.Uniform(std::min(max_size, n) + 1));
    std::vector<uint32_t> elems = rng.SampleWithoutReplacement(n, size);
    std::sort(elems.begin(), elems.end());
    builder.AddSet(elems);
  }
  return std::move(builder).Build();
}

TransposedIndex IndexOf(const SetSystem& system) {
  TransposedIndex::Builder builder(system.num_elements());
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    builder.CountSet(system.GetSet(s));
  }
  builder.PrepareFill();
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    builder.FillSet(s, system.GetSet(s));
  }
  return std::move(builder).Build();
}

TEST(TransposedIndexTest, BuilderMatchesBruteForceMembership) {
  Rng rng(21);
  const SetSystem system = RandomSystem(120, 80, rng);
  const TransposedIndex index = IndexOf(system);

  ASSERT_EQ(index.num_elements(), system.num_elements());
  size_t nnz = 0;
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    nnz += system.GetSet(s).size();
  }
  EXPECT_EQ(index.entry_count(), nnz);
  EXPECT_GT(index.word_count(), 0u);

  for (uint32_t e = 0; e < system.num_elements(); ++e) {
    std::vector<uint32_t> expect;
    for (uint32_t s = 0; s < system.num_sets(); ++s) {
      const std::span<const uint32_t> elems = system.GetSet(s);
      if (std::binary_search(elems.begin(), elems.end(), e)) {
        expect.push_back(s);
      }
    }
    const std::span<const uint32_t> column = index.Sets(e);
    // Sets were filled in ascending index order, so columns are sorted.
    EXPECT_TRUE(std::equal(column.begin(), column.end(), expect.begin(),
                           expect.end()))
        << "element " << e;
    EXPECT_EQ(index.Coverable(e), !expect.empty());
  }
}

TEST(TransposedIndexTest, EmptyColumnsAndEmptySets) {
  // Element 2 is in no set; set 1 is empty. Both must round-trip.
  SetSystem::Builder builder(4);
  builder.AddSet({0, 3});
  builder.AddSet(std::initializer_list<uint32_t>{});
  const SetSystem system = std::move(builder).Build();
  const TransposedIndex index = IndexOf(system);
  EXPECT_EQ(index.entry_count(), 2u);
  EXPECT_TRUE(index.Coverable(0));
  EXPECT_FALSE(index.Coverable(1));
  EXPECT_FALSE(index.Coverable(2));
  EXPECT_TRUE(index.Coverable(3));
  EXPECT_TRUE(index.Sets(1).empty());
  ASSERT_EQ(index.Sets(0).size(), 1u);
  EXPECT_EQ(index.Sets(0)[0], 0u);
}

/// The index over `system` built through `ranges` row ranges: set s is
/// in range r when m·r/R <= s < m·(r+1)/R. The ranges' sweeps run on
/// `pool` when given, else one after another.
TransposedIndex RangedIndexOf(const SetSystem& system, uint32_t ranges,
                              WorkerPool* pool) {
  TransposedIndex::Builder builder(system.num_elements(), ranges);
  const uint64_t m = system.num_sets();
  auto begin = [&](size_t r) { return static_cast<uint32_t>(m * r / ranges); };
  auto each_range = [&](const auto& body) {
    if (pool != nullptr) {
      pool->ParallelFor(ranges, body);
    } else {
      for (uint32_t r = 0; r < ranges; ++r) body(r);
    }
  };
  each_range([&](size_t r) {
    for (uint32_t s = begin(r); s < begin(r + 1); ++s) {
      builder.CountSet(system.GetSet(s), static_cast<uint32_t>(r));
    }
  });
  builder.PrepareFill();
  each_range([&](size_t r) {
    for (uint32_t s = begin(r); s < begin(r + 1); ++s) {
      builder.FillSet(s, system.GetSet(s), static_cast<uint32_t>(r));
    }
  });
  return std::move(builder).Build();
}

TEST(TransposedIndexTest, RangedBuildEqualsTheOneRangeBuild) {
  // Empty sets, sets over almost the whole universe, and elements no
  // set contains (the top 20 ids), with fewer sets than ranges too.
  Rng rng(27);
  for (const uint32_t m : {3u, 40u, 200u}) {
    SetSystem::Builder builder(300);
    for (uint32_t s = 0; s < m; ++s) {
      const uint32_t kind = static_cast<uint32_t>(rng.Uniform(4));
      const uint32_t size = kind == 0   ? 0
                            : kind == 1 ? 250 + static_cast<uint32_t>(
                                                    rng.Uniform(30))
                                        : static_cast<uint32_t>(
                                              rng.Uniform(15));
      std::vector<uint32_t> elems = rng.SampleWithoutReplacement(280, size);
      std::sort(elems.begin(), elems.end());
      builder.AddSet(elems);
    }
    const SetSystem system = std::move(builder).Build();
    const TransposedIndex expect = IndexOf(system);
    WorkerPool pool(4);
    for (const uint32_t ranges : {1u, 2u, 3u, 4u, 7u}) {
      for (WorkerPool* on : {static_cast<WorkerPool*>(nullptr), &pool}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " ranges=" +
                     std::to_string(ranges) +
                     (on != nullptr ? " on the pool" : " serial"));
        const TransposedIndex got = RangedIndexOf(system, ranges, on);
        ASSERT_EQ(got.num_elements(), expect.num_elements());
        EXPECT_EQ(got.entry_count(), expect.entry_count());
        EXPECT_EQ(got.word_count(), expect.word_count());
        for (uint32_t e = 0; e < system.num_elements(); ++e) {
          const std::span<const uint32_t> a = expect.Sets(e);
          const std::span<const uint32_t> b = got.Sets(e);
          ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
              << "element " << e;
        }
      }
    }
  }
}

/// Every set's starting gain |S ∩ mask|, counted by the reference
/// kernel.
std::vector<uint32_t> StartingGains(const SetSystem& system,
                                    const DynamicBitset& mask) {
  std::vector<uint32_t> gains;
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    gains.push_back(static_cast<uint32_t>(
        reference::CountUncovered(system.GetSet(s), mask)));
  }
  return gains;
}

TEST(GainTrackerTest, StartsFromTheGivenGains) {
  Rng rng(22);
  const SetSystem system = RandomSystem(100, 60, rng);
  const TransposedIndex index = IndexOf(system);
  DynamicBitset mask(system.num_elements());
  for (uint32_t e = 0; e < system.num_elements(); ++e) {
    if (rng.Bernoulli(0.6)) mask.Set(e);
  }
  const std::vector<uint32_t> start = StartingGains(system, mask);
  GainTracker tracker(&index, start);
  ASSERT_EQ(tracker.num_sets(), system.num_sets());
  EXPECT_EQ(tracker.word_count(), (system.num_sets() + 1u) / 2);
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    EXPECT_EQ(tracker.gain(s), start[s]) << "set " << s;
  }
  // Starting gains are given, not maintained: no decrements counted.
  EXPECT_EQ(tracker.gain_updates(), 0u);

  // Covering the whole mask takes every set to zero, one decrement per
  // (masked element, set) pair.
  const std::vector<uint32_t> masked = mask.ToVector();
  tracker.OnCovered(masked);
  uint64_t pairs = 0;
  for (uint32_t e : masked) pairs += index.Sets(e).size();
  EXPECT_EQ(tracker.gain_updates(), pairs);
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    EXPECT_EQ(tracker.gain(s), 0u) << "set " << s;
  }
}

TEST(GainTrackerTest, DecrementalFuzzMatchesRecompute) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const uint32_t n = 40 + static_cast<uint32_t>(rng.Uniform(120));
    const SetSystem system =
        RandomSystem(n, 30 + static_cast<uint32_t>(rng.Uniform(60)), rng);
    const TransposedIndex index = IndexOf(system);
    DynamicBitset uncovered(n, true);
    GainTracker tracker(&index, StartingGains(system, uncovered));

    // Cover random batches of distinct still-uncovered elements; after
    // every batch the tracked gains must equal a full recompute.
    while (uncovered.Any()) {
      std::vector<uint32_t> batch;
      const std::vector<uint32_t> live = uncovered.ToVector();
      const size_t take = 1 + rng.Uniform(static_cast<uint32_t>(live.size()));
      for (size_t i = 0; i < take; ++i) batch.push_back(live[i]);
      for (uint32_t e : batch) uncovered.Reset(e);
      tracker.OnCovered(batch);
      for (uint32_t s = 0; s < system.num_sets(); ++s) {
        ASSERT_EQ(tracker.gain(s),
                  reference::CountUncovered(system.GetSet(s), uncovered))
            << "trial " << trial << " set " << s;
      }
    }
    // Every (element, set) pair was decremented exactly once: the
    // maintenance total is exactly the coverable entries' count.
    EXPECT_EQ(tracker.gain_updates(), index.entry_count());
    for (uint32_t s = 0; s < system.num_sets(); ++s) {
      EXPECT_EQ(tracker.gain(s), 0u);
    }
  }
}

TEST(OfflineGreedyTest, MatchesBruteForceExactGreedy) {
  // The lazy-heap + tracker loop must pick exactly what the textbook
  // argmax picks: max gain, larger set id on ties (the packed-key
  // order).
  Rng rng(25);
  for (int trial = 0; trial < 10; ++trial) {
    const SetSystem system = RandomSystem(90, 50, rng);
    const OfflineResult result = GreedySolver().Solve(system);

    std::vector<uint32_t> expect;
    DynamicBitset uncovered(system.num_elements(), true);
    // Uncoverable elements can never be covered; exclude them exactly
    // like the solver's coverability pre-pass does.
    for (uint32_t e = 0; e < system.num_elements(); ++e) {
      bool coverable = false;
      for (uint32_t s = 0; s < system.num_sets() && !coverable; ++s) {
        const std::span<const uint32_t> elems = system.GetSet(s);
        coverable = std::binary_search(elems.begin(), elems.end(), e);
      }
      if (!coverable) uncovered.Reset(e);
    }
    while (uncovered.Any()) {
      uint64_t best_gain = 0;
      uint32_t best_set = 0;
      for (uint32_t s = 0; s < system.num_sets(); ++s) {
        const uint64_t gain =
            reference::CountUncovered(system.GetSet(s), uncovered);
        if (gain > best_gain || (gain == best_gain && gain > 0 &&
                                 s > best_set)) {
          best_gain = gain;
          best_set = s;
        }
      }
      if (best_gain == 0) break;
      expect.push_back(best_set);
      reference::MarkCovered(system.GetSet(best_set), uncovered);
    }
    EXPECT_EQ(result.cover.set_ids, expect) << "trial " << trial;
    EXPECT_GT(result.gain_updates, 0u);
    EXPECT_GT(result.sets_touched, 0u);
  }
}

// --- MergeStage vs the textbook argmax --------------------------------------

std::vector<std::vector<uint32_t>> RandomCandidates(uint32_t n, uint32_t m,
                                                    Rng& rng) {
  // A mix of sparse and dense-eligible candidates plus a few planted
  // big sets so the union is coverable and multiple rounds happen.
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t s = 0; s < m; ++s) {
    const bool dense = rng.Bernoulli(0.3);
    const uint32_t size = dense
                              ? n / 4 + static_cast<uint32_t>(rng.Uniform(n / 4))
                              : 1 + static_cast<uint32_t>(rng.Uniform(8));
    std::vector<uint32_t> elems = rng.SampleWithoutReplacement(n, size);
    std::sort(elems.begin(), elems.end());
    sets.push_back(std::move(elems));
  }
  // Guarantee coverability: partition the universe into a few blocks.
  const uint32_t block = n / 5 + 1;
  for (uint32_t start = 0; start < n; start += block) {
    std::vector<uint32_t> elems;
    for (uint32_t e = start; e < std::min(n, start + block); ++e) {
      elems.push_back(e);
    }
    sets.push_back(std::move(elems));
  }
  return sets;
}

/// Textbook merge: each round recomputes every candidate's residual gain
/// and takes the maximum, the earliest-inserted candidate winning ties.
std::vector<uint32_t> ArgmaxMerge(
    const std::vector<std::vector<uint32_t>>& sets, uint32_t n) {
  std::vector<uint32_t> picks;
  DynamicBitset uncovered(n, true);
  while (true) {
    uint64_t best_gain = 0;
    uint32_t best = 0;
    for (uint32_t i = 0; i < sets.size(); ++i) {
      const uint64_t gain = reference::CountUncovered(sets[i], uncovered);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best_gain == 0) return picks;
    picks.push_back(best);
    reference::MarkCovered(sets[best], uncovered);
  }
}

// Every kernel the merge runs — the sparse word kernels and the dense
// ones at the detected tier (the portable word loop under
// STREAMCOVER_FORCE_SCALAR_ISA=1) — against the reference argmax.
TEST(MergeStageTest, MatchesArgmaxOracleForEveryKernel) {
  Rng rng(26);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const uint32_t n = 150 + static_cast<uint32_t>(rng.Uniform(200));
    const std::vector<std::vector<uint32_t>> sets =
        RandomCandidates(n, 40, rng);
    const std::vector<uint32_t> expect = ArgmaxMerge(sets, n);
    uint64_t total_size = 0;
    for (const std::vector<uint32_t>& set : sets) total_size += set.size();

    MergeStage stage(n, static_cast<uint32_t>(sets.size()),
                     MergeStageOptions{});
    // Candidate i keeps set id i, so the oracle's indices are ids.
    for (uint32_t i = 0; i < sets.size(); ++i) {
      stage.AddCandidate(i, sets[i]);
    }
    const MergeOutcome outcome = stage.Merge();
    // The candidate mix crosses the dense-storage threshold.
    EXPECT_GT(stage.dense_candidates(), 0u);
    ASSERT_TRUE(outcome.success);
    EXPECT_EQ(outcome.covered, n);
    EXPECT_EQ(outcome.cover.set_ids, expect);

    // Output sensitivity: each (element, candidate) pair is decremented
    // at most once, and heap inspections stay below the rounds x
    // candidates recomputes the oracle performs.
    const MergeCounters& counters = stage.counters();
    ASSERT_GT(counters.rounds, 1u);
    EXPECT_GT(counters.gain_updates, 0u);
    EXPECT_LE(counters.gain_updates, total_size);
    EXPECT_LT(counters.sets_touched, counters.rounds * sets.size());
  }
}

}  // namespace
}  // namespace streamcover
