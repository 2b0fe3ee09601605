// U32Arena and ProjectionStore: bump staging, epoch reset, and the
// SpaceTracker watermark-attribution contract — releasing an epoch must
// hand back exactly the words the epoch charged, and the epoch reset
// CHECK-fails if the attribution was not settled first (the projection
// words of one iteration can never silently leak into the next
// iteration's watermark). The in-place sub-instance hand-off is checked
// against a SetSystem::Builder oracle, on rewriting and identity maps.
// The arena's growth (fresh buffers advised onto huge pages) must keep
// every committed run.

#include "util/arena.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/projection_store.h"
#include "gtest/gtest.h"
#include "setsystem/set_system.h"
#include "stream/space_tracker.h"
#include "util/rng.h"

namespace streamcover {
namespace {

TEST(U32ArenaTest, StagesCommitsAndRewinds) {
  U32Arena arena;
  EXPECT_TRUE(arena.empty());
  const size_t first = arena.size();
  arena.Push(5);
  arena.Push(7);
  EXPECT_EQ(arena.TailFrom(first).size(), 2u);
  EXPECT_EQ(arena.TailFrom(first)[1], 7u);

  const size_t second = arena.size();
  arena.Push(9);
  arena.RewindTo(second);  // abandoned run
  EXPECT_EQ(arena.size(), 2u);

  const auto span = arena.SpanAt(first, 2);
  EXPECT_EQ(span[0], 5u);
  EXPECT_EQ(span[1], 7u);
}

TEST(U32ArenaTest, EpochResetDropsContentAndCounts) {
  U32Arena arena;
  for (uint32_t i = 0; i < 100; ++i) arena.Push(i);
  EXPECT_EQ(arena.epoch(), 0u);
  arena.ResetEpoch();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.epoch(), 1u);
  arena.Push(42);
  EXPECT_EQ(arena.SpanAt(0, 1)[0], 42u);
}

// About 6M words staged in runs of varying length, the way the kernels
// and the Size Test stage them: pushed one by one, or extended in bulk
// and rewound to the kept prefix; some runs are abandoned. The buffer
// grows past the 2 MiB huge-page advice threshold and through several
// doublings after it, and every committed run must keep its words at
// its offset across each growth; TakeWords returns the committed runs
// back to back, in order.
TEST(U32ArenaTest, GrowthKeepsEveryCommittedRun) {
  struct Run {
    size_t offset;
    size_t length;
    uint32_t seed;
  };
  auto word = [](uint32_t seed, size_t i) {
    return static_cast<uint32_t>(seed * 2654435761u + i * 40503u);
  };
  Rng rng(43);
  U32Arena arena;
  std::vector<Run> runs;
  auto check_runs = [&] {
    for (const Run& run : runs) {
      const std::span<const uint32_t> got = arena.SpanAt(run.offset, run.length);
      for (size_t i = 0; i < run.length; ++i) {
        ASSERT_EQ(got[i], word(run.seed, i))
            << "run at " << run.offset << ", word " << i;
      }
    }
  };
  constexpr size_t kTarget = size_t{6} << 20;
  size_t next_check = size_t{1} << 20;
  uint64_t abandoned = 0;
  for (uint32_t seed = 0; arena.size() < kTarget; ++seed) {
    const size_t mark = arena.size();
    // Mostly short runs, now and then one of up to 64K words.
    const size_t length = rng.Uniform(16) == 0
                              ? rng.Uniform(uint64_t{1} << 16)
                              : rng.Uniform(300);
    size_t kept = length;
    if (seed % 2 == 0) {
      for (size_t i = 0; i < length; ++i) arena.Push(word(seed, i));
    } else {
      uint32_t* out = arena.Extend(length);
      for (size_t i = 0; i < length; ++i) out[i] = word(seed, i);
      kept = length == 0 ? 0 : rng.Uniform(length + 1);
      arena.RewindTo(mark + kept);
    }
    ASSERT_EQ(arena.size(), mark + kept);
    if (rng.Uniform(5) == 0) {
      arena.RewindTo(mark);
      ++abandoned;
    } else {
      runs.push_back({mark, kept, seed});
    }
    if (arena.size() >= next_check) {
      check_runs();
      next_check += size_t{1} << 20;
    }
  }
  check_runs();
  EXPECT_GT(abandoned, 0u);

  const size_t total = arena.size();
  const std::vector<uint32_t> words = arena.TakeWords();
  ASSERT_EQ(words.size(), total);
  size_t at = 0;
  for (const Run& run : runs) {
    ASSERT_EQ(run.offset, at);
    for (size_t i = 0; i < run.length; ++i) {
      ASSERT_EQ(words[at + i], word(run.seed, i));
    }
    at += run.length;
  }
  EXPECT_EQ(at, total);
  // The arena gave its buffer away and grows a fresh one.
  EXPECT_TRUE(arena.empty());
  arena.Push(7);
  EXPECT_EQ(arena.SpanAt(0, 1)[0], 7u);
}

// Simulates two Size-Test iterations: the store's words() must mirror
// the tracker charges, the release must return the footprint to exactly
// the pre-iteration level, and the peak must be the max — not the sum —
// of the two epochs' watermarks.
TEST(ProjectionStoreTest, EpochReleaseResetsWatermarkAttribution) {
  ProjectionStore store;
  SpaceTracker tracker;

  // Iteration 1: two light sets (3 + 1 words incl. id, and 2 + 1).
  size_t mark = store.StageMark();
  store.StagePush(1);
  store.StagePush(2);
  store.StagePush(3);
  tracker.Charge(store.Staged(mark).size() + 1);
  store.CommitLight(10, mark);
  mark = store.StageMark();
  store.StagePush(4);
  store.StagePush(5);
  tracker.Charge(store.Staged(mark).size() + 1);
  store.CommitLight(11, mark);
  // A heavy set stages and abandons without charging.
  mark = store.StageMark();
  store.StagePush(6);
  store.Abandon(mark);

  EXPECT_EQ(store.words(), 7u);
  EXPECT_EQ(tracker.current_words(), 7u);
  ASSERT_EQ(store.refs().size(), 2u);
  EXPECT_EQ(store.refs()[0].set_id, 10u);
  EXPECT_EQ(store.Elements(store.refs()[0]).size(), 3u);
  EXPECT_EQ(store.Elements(store.refs()[1])[0], 4u);

  store.ReleaseEpoch(tracker);
  EXPECT_EQ(store.words(), 0u);
  EXPECT_EQ(tracker.current_words(), 0u);
  store.ResetEpoch();
  EXPECT_EQ(store.refs().size(), 0u);
  EXPECT_EQ(store.epoch(), 1u);

  // Iteration 2 is smaller: the watermark attribution restarted from
  // zero, so the peak stays at iteration 1's 7 words (max, not sum).
  mark = store.StageMark();
  store.StagePush(8);
  tracker.Charge(store.Staged(mark).size() + 1);
  store.CommitLight(12, mark);
  EXPECT_EQ(store.words(), 2u);
  EXPECT_EQ(tracker.current_words(), 2u);
  EXPECT_EQ(tracker.peak_words(), 7u);
  store.ReleaseEpoch(tracker);
  store.ResetEpoch();
  EXPECT_EQ(tracker.peak_words(), 7u);
}

// The in-place hand-off must build exactly the sub-instance a
// SetSystem::Builder builds from the reindexed projections: elements the
// mask drops are gone, projections it empties are skipped, and the rest
// keep their commit order and original set ids — across random sorted
// projections interleaved with abandoned (heavy or empty) stages. The
// epoch's words stay charged until ReleaseEpoch, and the next epoch
// stages and commits on a fresh buffer.
TEST(ProjectionStoreTest, TakeSubInstanceMatchesBuilderOracle) {
  Rng rng(41);
  uint64_t dropped_elements = 0;
  uint64_t emptied_sets = 0;
  uint64_t abandoned_stages = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(150));
    const uint64_t keep_per_mille = rng.Uniform(1001);
    std::vector<uint32_t> reindex(n, UINT32_MAX);
    uint32_t n_sub = 0;
    for (uint32_t e = 0; e < n; ++e) {
      if (rng.Uniform(1000) < keep_per_mille) reindex[e] = n_sub++;
    }

    ProjectionStore store;
    SpaceTracker tracker;
    SetSystem::Builder oracle(n_sub);
    std::vector<uint32_t> oracle_ids;
    const uint32_t stages = static_cast<uint32_t>(rng.Uniform(40));
    for (uint32_t id = 0; id < stages; ++id) {
      const uint64_t density = 1 + rng.Uniform(12);
      std::vector<uint32_t> projection;
      for (uint32_t e = 0; e < n; ++e) {
        if (rng.Uniform(density) == 0) projection.push_back(e);
      }
      const size_t mark = store.StageMark();
      for (uint32_t e : projection) store.StagePush(e);
      if (projection.empty() || rng.Uniform(4) == 0) {
        store.Abandon(mark);
        ++abandoned_stages;
        continue;
      }
      const uint32_t set_id = 7 * id + 3;
      tracker.Charge(projection.size() + 1);
      store.CommitLight(set_id, mark);
      std::vector<uint32_t> mapped;
      for (uint32_t e : projection) {
        if (reindex[e] == UINT32_MAX) {
          ++dropped_elements;
        } else {
          mapped.push_back(reindex[e]);
        }
      }
      if (mapped.empty()) {
        ++emptied_sets;
        continue;
      }
      oracle.AddSet(mapped);
      oracle_ids.push_back(set_id);
    }

    const uint64_t committed = store.words();
    std::vector<uint32_t> ids;
    const SetSystem sub = store.TakeSubInstance(reindex, n_sub, ids);
    const SetSystem expect = std::move(oracle).Build();
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(sub.num_elements(), expect.num_elements());
    ASSERT_EQ(sub.num_sets(), expect.num_sets());
    EXPECT_EQ(sub.total_size(), expect.total_size());
    for (uint32_t s = 0; s < sub.num_sets(); ++s) {
      EXPECT_TRUE(std::ranges::equal(sub.GetSet(s), expect.GetSet(s)))
          << "set " << s;
    }
    EXPECT_EQ(ids, oracle_ids);

    // The store is empty but the words stay charged until released.
    EXPECT_TRUE(store.refs().empty());
    EXPECT_EQ(store.words(), committed);
    EXPECT_EQ(tracker.current_words(), committed);
    store.ReleaseEpoch(tracker);
    EXPECT_EQ(store.words(), 0u);
    EXPECT_EQ(tracker.current_words(), 0u);
    store.ResetEpoch();

    // The next epoch stages and commits normally.
    const size_t mark = store.StageMark();
    EXPECT_EQ(mark, 0u);
    store.StagePush(2);
    store.StagePush(5);
    tracker.Charge(store.Staged(mark).size() + 1);
    store.CommitLight(9, mark);
    ASSERT_EQ(store.refs().size(), 1u);
    EXPECT_EQ(store.refs()[0].set_id, 9u);
    EXPECT_TRUE(std::ranges::equal(store.Elements(store.refs()[0]),
                                   std::vector<uint32_t>{2, 5}));
    EXPECT_EQ(store.words(), 3u);
    store.ReleaseEpoch(tracker);
    store.ResetEpoch();
    EXPECT_EQ(tracker.current_words(), 0u);
  }
  // The random masks exercised every case the oracle encodes.
  EXPECT_GT(dropped_elements, 0u);
  EXPECT_GT(emptied_sets, 0u);
  EXPECT_GT(abandoned_stages, 0u);
}

// When the sub-instance keeps every element (n_sub == n), the reindex
// map is the identity and the hand-off lays out offsets and ids without
// rewriting a word. It must build what the Builder oracle builds, with
// zero-length refs (committed from an empty stage) skipped like emptied
// ones. Trials alternate with maps that drop one element, which take
// the rewriting path on the same kind of store.
TEST(ProjectionStoreTest, IdentityHandOffMatchesBuilderOracle) {
  Rng rng(42);
  uint64_t identity_trials = 0;
  uint64_t zero_length_refs = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(150));
    std::vector<uint32_t> reindex(n);
    for (uint32_t e = 0; e < n; ++e) reindex[e] = e;
    uint32_t n_sub = n;
    if (trial % 2 == 1) {
      const uint32_t dropped = static_cast<uint32_t>(rng.Uniform(n));
      reindex[dropped] = UINT32_MAX;
      for (uint32_t e = dropped + 1; e < n; ++e) --reindex[e];
      --n_sub;
    }

    ProjectionStore store;
    SpaceTracker tracker;
    SetSystem::Builder oracle(n_sub);
    std::vector<uint32_t> oracle_ids;
    const uint32_t stages = static_cast<uint32_t>(rng.Uniform(40));
    for (uint32_t id = 0; id < stages; ++id) {
      const uint64_t density = 1 + rng.Uniform(12);
      std::vector<uint32_t> projection;
      if (rng.Uniform(6) != 0) {
        for (uint32_t e = 0; e < n; ++e) {
          if (rng.Uniform(density) == 0) projection.push_back(e);
        }
      }
      const size_t mark = store.StageMark();
      for (uint32_t e : projection) store.StagePush(e);
      if (!projection.empty() && rng.Uniform(4) == 0) {
        store.Abandon(mark);
        continue;
      }
      const uint32_t set_id = 5 * id + 1;
      tracker.Charge(projection.size() + 1);
      store.CommitLight(set_id, mark);
      if (projection.empty()) ++zero_length_refs;
      std::vector<uint32_t> mapped;
      for (uint32_t e : projection) {
        if (reindex[e] != UINT32_MAX) mapped.push_back(reindex[e]);
      }
      if (mapped.empty()) continue;
      oracle.AddSet(mapped);
      oracle_ids.push_back(set_id);
    }

    identity_trials += n_sub == reindex.size();
    std::vector<uint32_t> ids;
    const SetSystem sub = store.TakeSubInstance(reindex, n_sub, ids);
    const SetSystem expect = std::move(oracle).Build();
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(sub.num_elements(), expect.num_elements());
    ASSERT_EQ(sub.num_sets(), expect.num_sets());
    EXPECT_EQ(sub.total_size(), expect.total_size());
    for (uint32_t s = 0; s < sub.num_sets(); ++s) {
      EXPECT_TRUE(std::ranges::equal(sub.GetSet(s), expect.GetSet(s)))
          << "set " << s;
    }
    EXPECT_EQ(ids, oracle_ids);
    EXPECT_TRUE(store.refs().empty());
    store.ReleaseEpoch(tracker);
    EXPECT_EQ(tracker.current_words(), 0u);
    store.ResetEpoch();
  }
  EXPECT_EQ(identity_trials, 100u);
  EXPECT_GT(zero_length_refs, 0u);
}

TEST(ProjectionStoreTest, ResetWithUnsettledWordsAborts) {
  ProjectionStore store;
  const size_t mark = store.StageMark();
  store.StagePush(1);
  store.CommitLight(0, mark);
  // Resetting the arena without releasing the epoch's words would strand
  // the tracker attribution; the store refuses.
  EXPECT_DEATH(store.ResetEpoch(), "words");
}

}  // namespace
}  // namespace streamcover
