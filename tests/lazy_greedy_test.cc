// LazyGreedy against the heap loop it replaced (heap_greedy_reference.h)
// and the textbook argmax.
//
// The bucket queue must inspect claims in exactly the heap's order, so
// picks (in order), covered, success, sets_touched, gain_updates and
// working_words all match the reference — under both tie rules
// (GreedySolver's larger id, MergeStage's earliest candidate), with
// `required` counts, dense rows, elements no candidate contains, and
// buckets that gather enough moved claims to radix-sort them. The heap
// loop counts its starting gains per row; LazyGreedy takes them from
// its count sweep. A run inside a 4-thread WorkerPool loop builds its
// index (and writes its starting gains) over row ranges and must equal
// the serial run. CI runs this suite under TSan.

#include "offline/lazy_greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "heap_greedy_reference.h"
#include "offline/greedy.h"
#include "setsystem/set_system.h"
#include "shard/merge_stage.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace streamcover {
namespace {

using Ties = LazyGreedy::Ties;

void ExpectSameRun(const LazyGreedyResult& expect,
                   const LazyGreedyResult& got) {
  EXPECT_EQ(got.picks, expect.picks);
  EXPECT_EQ(got.covered, expect.covered);
  EXPECT_EQ(got.success, expect.success);
  EXPECT_EQ(got.sets_touched, expect.sets_touched);
  EXPECT_EQ(got.gain_updates, expect.gain_updates);
  EXPECT_EQ(got.working_words, expect.working_words);
}

/// A candidate store: sparse rows, some of them also kept as dense
/// mask-shaped rows, over a universe with elements no row contains.
struct Store {
  uint32_t n = 0;
  std::vector<std::vector<uint32_t>> sets;
  BitsetCSR dense{0};
  std::vector<int64_t> dense_row;  ///< per set: its dense row, or -1

  std::vector<ReferenceRow> ReferenceRows() const {
    std::vector<ReferenceRow> rows;
    for (size_t i = 0; i < sets.size(); ++i) {
      if (dense_row[i] >= 0) {
        rows.push_back({{}, dense.Row(static_cast<uint32_t>(dense_row[i]))});
      } else {
        rows.push_back({sets[i], {}});
      }
    }
    return rows;
  }

  LazyGreedy Greedy(Ties ties) const {
    LazyGreedy greedy(n, ties);
    for (size_t i = 0; i < sets.size(); ++i) {
      if (dense_row[i] >= 0) {
        greedy.AddDense(dense.Row(static_cast<uint32_t>(dense_row[i])));
      } else {
        greedy.AddSparse(sets[i]);
      }
    }
    return greedy;
  }
};

/// `m` sets over [0, n - n/10): the top tenth of the universe is in no
/// set. Gains collide often (sizes 0..max_size), a `dense_share` of the
/// sets become dense rows, and a few are empty.
Store RandomStore(uint32_t n, uint32_t m, uint32_t max_size,
                  double dense_share, Rng& rng) {
  Store store;
  store.n = n;
  store.dense = BitsetCSR(n);
  const uint32_t reach = n - n / 10;
  for (uint32_t s = 0; s < m; ++s) {
    const bool dense = rng.Bernoulli(dense_share);
    const uint32_t size =
        dense ? reach / 4 + static_cast<uint32_t>(rng.Uniform(reach / 2))
              : static_cast<uint32_t>(rng.Uniform(max_size + 1));
    std::vector<uint32_t> elems =
        rng.SampleWithoutReplacement(reach, std::min(size, reach));
    std::sort(elems.begin(), elems.end());
    store.dense_row.push_back(
        dense ? static_cast<int64_t>(store.dense.AddRow(elems)) : -1);
    store.sets.push_back(std::move(elems));
  }
  return store;
}

TEST(LazyGreedyOracleTest, MatchesTheHeapLoopUnderBothTieRules) {
  Rng rng(901);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t n = 60 + static_cast<uint32_t>(rng.Uniform(300));
    const uint32_t m = 1 + static_cast<uint32_t>(rng.Uniform(150));
    const Store store = RandomStore(n, m, 10, trial % 3 == 0 ? 0.2 : 0.0, rng);
    const std::vector<ReferenceRow> rows = store.ReferenceRows();
    for (const Ties ties : {Ties::kHighestIndex, Ties::kLowestIndex}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " ties " +
                   std::to_string(static_cast<int>(ties)));
      const LazyGreedyResult expect = HeapGreedyReference(n, ties, rows);
      ExpectSameRun(expect, store.Greedy(ties).Run());
      // Elements outside every row were dropped, so a full run covers.
      EXPECT_TRUE(expect.success);
    }
  }
}

TEST(LazyGreedyOracleTest, MatchesTheHeapLoopUnderBudgetsAndRequiredCounts) {
  Rng rng(902);
  for (int trial = 0; trial < 12; ++trial) {
    const uint32_t n = 200 + static_cast<uint32_t>(rng.Uniform(200));
    const Store store = RandomStore(n, 120, 14, 0.1, rng);
    const std::vector<ReferenceRow> rows = store.ReferenceRows();
    for (const Ties ties : {Ties::kHighestIndex, Ties::kLowestIndex}) {
      const LazyGreedy greedy = store.Greedy(ties);
      const uint64_t all = HeapGreedyReference(n, ties, rows).covered;
      // Below, at and above the coverable count (above never succeeds).
      for (const uint64_t required :
           {uint64_t{0}, all / 2, all, all + 1, LazyGreedy::kAllCoverable}) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " required " +
                     std::to_string(required));
        ExpectSameRun(HeapGreedyReference(n, ties, rows, required),
                      greedy.Run(required));
      }
    }
  }
}

TEST(LazyGreedyOracleTest, MatchesTheHeapLoopOnDenseRowsAndUncoverableTargets) {
  Rng rng(903);
  // Every row dense (the top tenth of the universe in none of them);
  // then a store whose rows are all empty (no claim at all).
  const Store dense = RandomStore(500, 40, 0, 1.0, rng);
  Store empty;
  empty.n = 100;
  empty.dense = BitsetCSR(100);
  empty.sets.assign(5, {});
  empty.dense_row.assign(5, -1);
  for (const Store* store : std::vector<const Store*>{&dense, &empty}) {
    for (const Ties ties : {Ties::kHighestIndex, Ties::kLowestIndex}) {
      ExpectSameRun(
          HeapGreedyReference(store->n, ties, store->ReferenceRows()),
          store->Greedy(ties).Run());
    }
  }
  const LazyGreedyResult run = empty.Greedy(Ties::kHighestIndex).Run();
  EXPECT_TRUE(run.picks.empty());
  EXPECT_EQ(run.sets_touched, 0u);
  EXPECT_TRUE(run.success);  // nothing is coverable
  EXPECT_FALSE(empty.Greedy(Ties::kHighestIndex).Run(1).success);
}

TEST(LazyGreedyOracleTest, GreedySolverAndMergeStageMatchTheHeapLoop) {
  Rng rng(904);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t n = 300 + static_cast<uint32_t>(rng.Uniform(200));
    const Store store = RandomStore(n, 90, 20, 0.25, rng);
    std::vector<ReferenceRow> sparse_rows;
    for (const std::vector<uint32_t>& set : store.sets) {
      sparse_rows.push_back({set, {}});
    }
    SCOPED_TRACE("trial " + std::to_string(trial));

    // GreedySolver: every set sparse, the larger id wins ties.
    SetSystem::Builder builder(n);
    for (const std::vector<uint32_t>& set : store.sets) builder.AddSet(set);
    const SetSystem system = std::move(builder).Build();
    const LazyGreedyResult expect_greedy =
        HeapGreedyReference(n, Ties::kHighestIndex, sparse_rows);
    const OfflineResult greedy = GreedySolver().Solve(system);
    EXPECT_EQ(greedy.cover.set_ids, expect_greedy.picks);
    EXPECT_EQ(greedy.sets_touched, expect_greedy.sets_touched);
    EXPECT_EQ(greedy.gain_updates, expect_greedy.gain_updates);

    // MergeStage: candidate i keeps id i; it stores the large ones
    // dense, which changes neither picks nor counters. It asks for all
    // n elements, so it runs until no claim is left.
    const LazyGreedyResult expect_merge =
        HeapGreedyReference(n, Ties::kLowestIndex, sparse_rows, n);
    MergeStage stage(n, static_cast<uint32_t>(store.sets.size()),
                     MergeStageOptions{});
    for (uint32_t i = 0; i < store.sets.size(); ++i) {
      stage.AddCandidate(i, store.sets[i]);
    }
    const MergeOutcome merged = stage.Merge();
    EXPECT_GT(stage.dense_candidates(), 0u);
    EXPECT_EQ(merged.cover.set_ids, expect_merge.picks);
    EXPECT_EQ(merged.covered, expect_merge.covered);
    EXPECT_EQ(stage.counters().sets_touched, expect_merge.sets_touched);
    EXPECT_EQ(stage.counters().gain_updates, expect_merge.gain_updates);
  }
}

TEST(LazyGreedyOracleTest, MatchesTheHeapLoopWhenABucketRadixSortsItsClaims) {
  // Eight hub elements and a candidate holding all of them, picked
  // first at gain 8 + 1. Every other candidate holds one hub and one to
  // three private elements, so the first pick drops each of their gains
  // by one: the buckets at gains 2..4 each hold about a third of the
  // 6,000 claims, all of which turn out stale and move one bucket down.
  // Buckets 1..3 thus each receive well over kRadixSortCutoff moved
  // claims to sort and merge with their own initial ones.
  constexpr uint32_t kHubs = 8;
  constexpr uint32_t kSmall = 6000;
  static_assert(kSmall / 3 / 2 > LazyGreedy::kRadixSortCutoff);
  Rng rng(906);
  Store store;
  std::vector<uint32_t> big;
  for (uint32_t h = 0; h < kHubs; ++h) big.push_back(h);
  uint32_t next_private = kHubs;
  big.push_back(next_private++);
  std::vector<std::vector<uint32_t>> small;
  for (uint32_t i = 0; i < kSmall; ++i) {
    std::vector<uint32_t> set{static_cast<uint32_t>(rng.Uniform(kHubs))};
    const uint64_t privates = 1 + rng.Uniform(3);
    for (uint64_t p = 0; p < privates; ++p) set.push_back(next_private++);
    small.push_back(std::move(set));
  }
  store.n = next_private;
  store.dense = BitsetCSR(store.n);
  // The big candidate sits in the middle, so both tie rules see claims
  // on either side of it.
  for (uint32_t i = 0; i < kSmall; ++i) {
    if (i == kSmall / 2) store.sets.push_back(big);
    store.sets.push_back(small[i]);
  }
  store.dense_row.assign(store.sets.size(), -1);

  // The moved claims per bucket, counted as the heap loop sees them:
  // every small candidate falls from its starting gain by one.
  std::vector<uint64_t> moved_into(5, 0);
  for (const std::vector<uint32_t>& set : small) ++moved_into[set.size() - 1];
  for (uint32_t gain = 1; gain <= 3; ++gain) {
    EXPECT_GT(moved_into[gain], LazyGreedy::kRadixSortCutoff) << gain;
  }

  const std::vector<ReferenceRow> rows = store.ReferenceRows();
  for (const Ties ties : {Ties::kHighestIndex, Ties::kLowestIndex}) {
    SCOPED_TRACE("ties " + std::to_string(static_cast<int>(ties)));
    const LazyGreedyResult expect = HeapGreedyReference(store.n, ties, rows);
    const LazyGreedyResult got = store.Greedy(ties).Run();
    ExpectSameRun(expect, got);
    ASSERT_FALSE(got.picks.empty());
    EXPECT_EQ(got.picks.front(), kSmall / 2);
    EXPECT_TRUE(got.success);
  }
}

TEST(LazyGreedyOracleTest, RunInsideAPoolLoopEqualsTheSerialRun) {
  // A store of at least 4 ranges' worth of pairs (4·n + 2^18 each, see
  // lazy_greedy.h), so a run on a 4-thread pool builds its index over 4
  // row ranges, fanned out onto whichever workers are idle. Four runs
  // at once, under both tie rules and with dense rows, must each equal
  // the serial run and the heap loop.
  Rng rng(905);
  const Store store = RandomStore(1000, 13000, 160, 0.01, rng);
  uint64_t pairs = 0;
  for (const std::vector<uint32_t>& set : store.sets) pairs += set.size();
  ASSERT_GE(pairs, 4 * (4 * uint64_t{store.n} + (uint64_t{1} << 18)));
  for (const Ties ties : {Ties::kHighestIndex, Ties::kLowestIndex}) {
    const LazyGreedy greedy = store.Greedy(ties);
    const LazyGreedyResult serial = greedy.Run();
    ExpectSameRun(HeapGreedyReference(store.n, ties, store.ReferenceRows()),
                  serial);
    WorkerPool pool(4);
    std::vector<LazyGreedyResult> runs(4);
    pool.ParallelFor(runs.size(), [&](size_t r) {
      ASSERT_EQ(WorkerPool::Current(), &pool);
      runs[r] = greedy.Run();
    });
    // One run alone on the pool: every worker is idle and helps.
    pool.ParallelFor(1, [&](size_t) { runs.push_back(greedy.Run()); });
    for (const LazyGreedyResult& run : runs) ExpectSameRun(serial, run);
  }
}

}  // namespace
}  // namespace streamcover
