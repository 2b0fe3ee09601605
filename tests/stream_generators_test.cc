// The stream generators against the serial, hash-set reference they
// replaced (tests/reference_generators.h): the same sets after
// normalization, the same nnz and planted positions, and the same abort
// position, on streams shorter than one block, not a multiple of it,
// and spanning several waves, at the edges of Floyd's sampler (k = n,
// s >= n, the scan and stack-table limits), over several seeds. Also
// the sink contract: every set arrives sorted and duplicate-free, on
// the calling thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "reference_generators.h"
#include "setsystem/stream_generators.h"
#include "util/rng.h"

namespace streamcover {
namespace {

using Generator = std::function<std::optional<StreamGenResult>(
    const SetSink&, std::string*)>;

struct Captured {
  std::vector<std::vector<uint32_t>> sets;  ///< normalized, stream order
  std::optional<StreamGenResult> result;
  std::string error;
  bool sorted_unique = true;   ///< every set arrived strictly increasing
  bool caller_thread = true;   ///< every sink call ran on the caller
};

/// Runs `generate`, recording each set the sink receives; the sink
/// refuses the set at stream position `abort_at`.
Captured Capture(const Generator& generate, size_t abort_at = SIZE_MAX) {
  Captured out;
  const std::thread::id caller = std::this_thread::get_id();
  SetSink sink = [&](std::span<const uint32_t> set) {
    if (out.sets.size() == abort_at) return false;
    out.caller_thread &= std::this_thread::get_id() == caller;
    out.sorted_unique &=
        std::adjacent_find(set.begin(), set.end(),
                           std::greater_equal<uint32_t>()) == set.end();
    std::vector<uint32_t> normalized(set.begin(), set.end());
    std::sort(normalized.begin(), normalized.end());
    normalized.erase(std::unique(normalized.begin(), normalized.end()),
                     normalized.end());
    out.sets.push_back(std::move(normalized));
    return true;
  };
  out.result = generate(sink, &out.error);
  return out;
}

/// The production generator against its reference, run to the end and
/// aborted at each position in `aborts`.
void ExpectMatchesReference(const Generator& production,
                            const Generator& reference,
                            std::vector<size_t> aborts = {}) {
  const Captured want = Capture(reference);
  ASSERT_TRUE(want.result.has_value()) << want.error;
  const Captured got = Capture(production);
  ASSERT_TRUE(got.result.has_value()) << got.error;
  EXPECT_TRUE(got.sorted_unique);
  EXPECT_TRUE(got.caller_thread);
  EXPECT_EQ(got.sets.size(), want.sets.size());
  EXPECT_TRUE(got.sets == want.sets) << "normalized sets differ";
  EXPECT_EQ(got.result->num_sets, want.result->num_sets);
  EXPECT_EQ(got.result->nnz, want.result->nnz);
  EXPECT_EQ(got.result->planted_positions, want.result->planted_positions);

  for (const size_t abort_at : aborts) {
    SCOPED_TRACE("abort at set " + std::to_string(abort_at));
    const Captured want_abort = Capture(reference, abort_at);
    const Captured got_abort = Capture(production, abort_at);
    EXPECT_FALSE(want_abort.result.has_value());
    EXPECT_FALSE(got_abort.result.has_value());
    EXPECT_EQ(got_abort.error, "sink aborted at set " +
                                   std::to_string(abort_at));
    EXPECT_EQ(got_abort.error, want_abort.error);
    EXPECT_EQ(got_abort.sets.size(), abort_at);
    EXPECT_TRUE(got_abort.sets == want_abort.sets);
  }
}

TEST(FloydSamplerTest, MatchesTheHashSetReferenceDrawForDraw) {
  // Values around the scan limit (32) and the stack-table limit (2048),
  // k = 0 and k = n, small and huge universes; appended after existing
  // content, as the in-memory generators do.
  const std::vector<uint32_t> universes = {1,    2,     3,      31,
                                           32,   33,    64,     100,
                                           1000, 5000,  100000, 1u << 31};
  const std::vector<uint32_t> ks = {0,    1,    2,    7,    31,  32,
                                    33,   64,   100,  999,  1000, 2047,
                                    2048, 2049, 4096, 5000, 40000};
  for (const uint32_t n : universes) {
    std::vector<uint32_t> ks_for_n = ks;
    if (n <= 100000) ks_for_n.push_back(n);
    for (const uint32_t k : ks_for_n) {
      if (k > n) continue;
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      for (const uint64_t seed : {1, 7}) {
        Rng production(seed ^ n ^ (uint64_t{k} << 32));
        Rng reference = production;
        std::vector<uint32_t> got = {5, 6};
        std::vector<uint32_t> want = {5, 6};
        production.SampleWithoutReplacementInto(n, k, got);
        reference::SampleWithoutReplacementInto(reference, n, k, want);
        ASSERT_EQ(got, want);
        // Same number of draws: the generators stay in step.
        EXPECT_EQ(production.Next(), reference.Next());
      }
    }
  }
  // The vector-returning form is the same draws.
  Rng a(3);
  Rng b(3);
  std::vector<uint32_t> want;
  reference::SampleWithoutReplacementInto(b, 500, 300, want);
  EXPECT_EQ(a.SampleWithoutReplacement(500, 300), want);
}

PlantedOptions Planted(uint32_t n, uint32_t m, uint32_t k,
                       uint32_t noise_max) {
  PlantedOptions options;
  options.num_elements = n;
  options.num_sets = m;
  options.cover_size = k;
  options.noise_max_size = noise_max;
  return options;
}

void ExpectPlantedMatches(const PlantedOptions& options, uint64_t seed,
                          std::vector<size_t> aborts = {}) {
  ExpectMatchesReference(
      [&](const SetSink& sink, std::string* error) {
        return StreamPlanted(options, seed, sink, error);
      },
      [&](const SetSink& sink, std::string* error) {
        return reference::StreamPlanted(options, seed, sink, error);
      },
      std::move(aborts));
}

void ExpectSparseMatches(uint32_t n, uint32_t m, uint32_t s, uint64_t seed,
                         std::vector<size_t> aborts = {}) {
  ExpectMatchesReference(
      [&](const SetSink& sink, std::string* error) {
        return StreamSparse(n, m, s, seed, sink, error);
      },
      [&](const SetSink& sink, std::string* error) {
        return reference::StreamSparse(n, m, s, seed, sink, error);
      },
      std::move(aborts));
}

void ExpectZipfMatches(uint32_t n, uint32_t m, double alpha, uint32_t s,
                       uint64_t seed) {
  ExpectMatchesReference(
      [&](const SetSink& sink, std::string* error) {
        return StreamZipf(n, m, alpha, s, seed, sink, error);
      },
      [&](const SetSink& sink, std::string* error) {
        return reference::StreamZipf(n, m, alpha, s, seed, sink, error);
      });
}

// A block holds 2^14 / (the largest set a family can draw) sets: 148
// for planted sets of at most 110 elements (blocks of n/k = 100 plus
// 10% overlap), 512 for sparse sets of at most 32. A wave is four
// blocks per thread.

TEST(StreamGeneratorsTest, PlantedMatchesReference) {
  for (const uint64_t seed : {1, 2, 9}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Below one block: filled inline.
    ExpectPlantedMatches(Planted(1000, 50, 10, 100), seed, {0, 49});
  }
  // 12011 sets = 81 blocks of 148 and a partial one: several waves.
  // Abort in the middle of a block of a later wave.
  ExpectPlantedMatches(Planted(2000, 12011, 20, 100), 3, {148 * 37 + 80});
  // Unshuffled stream order: the planted sets come first.
  PlantedOptions in_order = Planted(500, 2000, 5, 60);
  in_order.shuffle_order = false;
  ExpectPlantedMatches(in_order, 4);
}

TEST(StreamGeneratorsTest, PlantedSamplesTheWholeUniverse) {
  // k = n: every planted block is one element, and noise sets of
  // exactly n elements make Floyd draw k = n, past the stack table.
  PlantedOptions options = Planted(3000, 3040, 3000, 3000);
  options.noise_min_size = 3000;
  ExpectPlantedMatches(options, 5, {17});
}

TEST(StreamGeneratorsTest, SparseMatchesReference) {
  for (const uint64_t seed : {1, 3, 11}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSparseMatches(2000, 300, 32, seed, {0, 299});
  }
  // 20011 sets of at most 32: 39 full blocks of 512 and a partial one.
  // Abort in the middle of a block of a later wave.
  for (const uint64_t seed : {1, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSparseMatches(20000, 20011, 32, seed, {512 * 21 + 300});
  }
}

TEST(StreamGeneratorsTest, SparseWithSetsWiderThanTheUniverse) {
  // s >= n: one planted block covers U, and most sets sample all of it.
  ExpectSparseMatches(50, 2000, 64, 2, {1000});
  ExpectSparseMatches(1, 100, 1, 3);
}

TEST(StreamGeneratorsTest, ZipfMatchesReference) {
  // Zipf draws with replacement: duplicates are dropped in the workers,
  // while nnz still counts them, as the reference does.
  for (const uint64_t seed : {1, 7}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectZipfMatches(4000, 10007, 1.1, 24, seed);
    ExpectZipfMatches(300, 40, 0.8, 24, seed);
  }
}

TEST(StreamGeneratorsTest, EmptyStreamEmitsNothing) {
  ExpectSparseMatches(0, 0, 8, 1);
}

}  // namespace
}  // namespace streamcover
