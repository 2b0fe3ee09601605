// LazyGreedy — the one greedy loop behind every offline greedy step.
//
// algOfflineSC with rho = ln n (GreedySolver: iterSetCover's solve on
// each sampled sub-instance, and the store-all rows) and the sharded
// merge (MergeStage) both run this class. It holds a candidate store — borrowed sparse rows (sorted
// unique spans into the caller's CSR) and borrowed dense rows
// (mask-shaped BitsetCSR rows) — and runs exact greedy over it:
//
//   * an element → candidates TransposedIndex is built over the store
//     in one count sweep + one fill sweep. The count sweep also writes
//     each candidate's starting gain: a sparse row's size, a dense
//     row's popcount. Every element of a row is coverable, so that is
//     its gain over the coverable elements, and no third sweep over the
//     index computes them. A GainTracker starts from
//     those gains and keeps every candidate's residual gain exact by
//     decrementing along each pick's newly covered elements. Each
//     (element, candidate) pair is touched at most once, so total
//     maintenance is nnz(candidates). Run inside a WorkerPool loop (a
//     PassScheduler pass end), both sweeps run over up to one candidate
//     range per pool thread, fanned out onto the pool's idle workers,
//     when the store holds at least 4·num_elements + 2^18 pairs per
//     range: each range pays for its own n-entry count row and a
//     wake-up. The ranged builder makes the same index, and each range
//     writes only its own candidates' gains.
//   * candidates wait in a bucket queue of claims: bucket g holds the
//     tie keys of the candidates last seen at gain g, ascending, so the
//     top bucket's back is the largest (gain, tie key) claim. Claims
//     are only ever stale upward, so a top claim that equals its
//     tracked gain majorizes every other candidate's true gain: it is
//     the exact greedy argmax. A stale claim moves to the bucket of its
//     true gain, and a claim whose gain fell to zero is dropped. Moved
//     claims collect per bucket and are sorted and merged in when their
//     bucket reaches the top: by an LSD radix sort on 11-bit digits
//     once a bucket holds kRadixSortCutoff of them (the store-all
//     guess on iter_disk moves about 580K claims), by std::sort below.
//     The keys are distinct, so both give the same order. A bucket
//     never receives a claim while it is the top (claims only fall), so
//     every inspection sees exactly the claim a max-heap of packed
//     (gain << 32 | tie key) entries would have at its root.
//
// Ties among equal gains go by candidate index, in the direction the
// caller fixes at construction: GreedySolver prefers the larger set id,
// MergeStage the earliest-inserted candidate. All keys are distinct, so
// the pick sequence is a pure function of the store and the tie rule —
// identical at every kernel tier.
//
// A run targets every element some candidate contains and stops at the
// first of: `required` of them covered, no candidate with positive gain
// left.
//
// Counters: `sets_touched` counts claim inspections (gain evaluations),
// `gain_updates` the tracker's O(1) decrements — the pair the sweep
// report and perfbench surface to make output-sensitivity observable.

#ifndef STREAMCOVER_OFFLINE_LAZY_GREEDY_H_
#define STREAMCOVER_OFFLINE_LAZY_GREEDY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "setsystem/set_system.h"

namespace streamcover {

class TransposedIndex;
class WorkerPool;

struct LazyGreedyResult {
  std::vector<uint32_t> picks;  ///< candidate indices, in greedy order
  uint64_t covered = 0;         ///< elements the picks cover
  bool success = false;         ///< covered reached `required`
  uint64_t sets_touched = 0;    ///< claim inspections (gain evaluations)
  uint64_t gain_updates = 0;    ///< GainTracker decrements
  /// Words of working state the run held: mask, initial claims (one
  /// word per positive-gain candidate), index, gains (for callers that
  /// meter space). A claim is 32 bits, so a word covers it and its one
  /// moved or top-bucket copy. The bucket queue's per-level arrays (a
  /// bucket start and a moved-list head per gain level: 4 words a
  /// level, at most 4 per universe element) are deliberately left out,
  /// so the meter reads what the packed 64-bit heap before it held; the
  /// index's n + 1 metered offsets bound them to a constant factor.
  uint64_t working_words = 0;
};

class LazyGreedy {
 public:
  /// Which candidate wins a gain tie.
  enum class Ties : uint8_t {
    kHighestIndex,  ///< the larger candidate index
    kLowestIndex,   ///< the earliest-added candidate
  };

  /// `required` meaning "every element some candidate contains".
  static constexpr uint64_t kAllCoverable =
      std::numeric_limits<uint64_t>::max();

  /// Moved claims a bucket must gather before they are radix-sorted
  /// rather than std::sort-ed (see the header comment).
  static constexpr size_t kRadixSortCutoff = 512;

  LazyGreedy(uint32_t num_elements, Ties ties);

  /// Every set of `system` as a sparse candidate, candidate index = set
  /// id, the larger id winning ties — the offline solvers' store.
  static LazyGreedy OverSets(const SetSystem& system);

  /// Appends a candidate given as a sorted, duplicate-free span of
  /// elements < num_elements. Borrowed: it must outlive Run().
  void AddSparse(std::span<const uint32_t> elems);

  /// Appends a candidate given as a mask-shaped dense row (a
  /// BitsetCSR::Row over num_elements). Borrowed likewise.
  void AddDense(std::span<const uint64_t> row);

  /// Exact greedy over every element some candidate contains. Stops
  /// once `required` elements are covered or no candidate covers a
  /// remaining one.
  LazyGreedyResult Run(uint64_t required = kAllCoverable) const;

 private:
  /// A candidate: sparse (`dense` empty) or dense.
  struct Row {
    std::span<const uint32_t> sparse;
    std::span<const uint64_t> dense;
  };

  /// How many candidate ranges BuildIndex sweeps: 1 off a pool (or on
  /// a one-thread pool), else as many as the store's pairs fill at
  /// 4·num_elements + 2^18 pairs per range, at most the pool's threads.
  uint32_t IndexRanges(const WorkerPool* pool) const;

  /// The element → candidate index over the store, built over
  /// IndexRanges(WorkerPool::Current()) candidate ranges, the ranges
  /// after the first on the current pool's idle workers. The count
  /// sweep also writes gains[i] = |row i|, each range only its own
  /// candidates' slots.
  TransposedIndex BuildIndex(std::span<uint32_t> gains) const;

  uint32_t num_elements_;
  /// XOR-ed into a candidate index to make its tie key: all ones
  /// reverses the index order, so the largest key is the lowest index.
  uint32_t tie_mask_;
  std::vector<Row> rows_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_LAZY_GREEDY_H_
