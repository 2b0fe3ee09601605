// LazyGreedy — the one greedy loop behind every offline greedy step.
//
// algOfflineSC with rho = ln n (GreedySolver: iterSetCover's solve on
// each sampled sub-instance, and the store-all rows), the sharded merge
// (MergeStage), and [SG09] Max k-Cover (GreedyMaxCover) all run this
// class. It holds a candidate store — borrowed sparse rows (sorted
// unique spans into the caller's CSR) and borrowed dense rows
// (mask-shaped BitsetCSR rows) — and runs exact greedy over it:
//
//   * an element → candidates TransposedIndex is built over the store
//     in one count sweep + one fill sweep, and a GainTracker keeps every
//     candidate's residual gain exact by decrementing along each pick's
//     newly covered elements. Each (element, candidate) pair is touched
//     at most once, so total maintenance is nnz(candidates).
//   * a flat max-heap of packed (gain << 32 | tie key) entries is aged
//     lazily. Claims are only ever stale upward, so a root whose claim
//     equals its tracked gain majorizes every other candidate's true
//     gain: it is the exact greedy argmax. A stale root is re-keyed in
//     place with one sift-down (pop-and-reuse, never re-counted against
//     the mask), and a zero-gain root is dropped.
//
// Ties among equal gains go by candidate index, in the direction the
// caller fixes at construction: GreedySolver prefers the larger set id,
// MergeStage the earliest-inserted candidate. All keys are distinct, so
// the pick sequence is a pure function of the store, the target mask and
// the tie rule — identical across kernel policies.
//
// A run starts from a target mask (targets no candidate contains are
// dropped) and stops at the first of: `required` targets covered,
// `budget` picks made, no candidate with positive gain left.
//
// Counters: `sets_touched` counts heap inspections (gain evaluations),
// `gain_updates` the tracker's O(1) decrements — the pair the sweep
// report and perfbench surface to make output-sensitivity observable.

#ifndef STREAMCOVER_OFFLINE_LAZY_GREEDY_H_
#define STREAMCOVER_OFFLINE_LAZY_GREEDY_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "setsystem/set_system.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"

namespace streamcover {

struct LazyGreedyResult {
  std::vector<uint32_t> picks;  ///< candidate indices, in greedy order
  uint64_t covered = 0;         ///< target elements the picks cover
  bool success = false;         ///< covered reached `required`
  uint64_t sets_touched = 0;    ///< heap inspections (gain evaluations)
  uint64_t gain_updates = 0;    ///< GainTracker decrements
  /// Words of working state the run held: mask, initial heap, index,
  /// gains (for callers that meter space).
  uint64_t working_words = 0;
};

class LazyGreedy {
 public:
  /// Which candidate wins a gain tie.
  enum class Ties : uint8_t {
    kHighestIndex,  ///< the larger candidate index
    kLowestIndex,   ///< the earliest-added candidate
  };

  /// `required` meaning "every target some candidate contains".
  static constexpr uint64_t kAllCoverable =
      std::numeric_limits<uint64_t>::max();
  static constexpr uint64_t kNoBudget = std::numeric_limits<uint64_t>::max();

  LazyGreedy(uint32_t num_elements, Ties ties, KernelPolicy kernel);

  /// Every set of `system` as a sparse candidate, candidate index = set
  /// id, the larger id winning ties — the offline solvers' store.
  static LazyGreedy OverSets(const SetSystem& system, KernelPolicy kernel);

  /// Appends a candidate given as a sorted, duplicate-free span of
  /// elements < num_elements. Borrowed: it must outlive Run().
  void AddSparse(std::span<const uint32_t> elems);

  /// Appends a candidate given as a mask-shaped dense row (a
  /// BitsetCSR::Row over num_elements). Borrowed likewise.
  void AddDense(std::span<const uint64_t> row);

  /// Exact greedy from `targets` (a mask over num_elements). Stops once
  /// `required` targets are covered, `budget` picks are made, or no
  /// candidate covers a remaining target.
  LazyGreedyResult Run(const DynamicBitset& targets,
                       uint64_t required = kAllCoverable,
                       uint64_t budget = kNoBudget) const;

 private:
  /// A candidate: sparse (`dense` empty) or dense.
  struct Row {
    std::span<const uint32_t> sparse;
    std::span<const uint64_t> dense;
  };

  uint64_t Pack(uint64_t gain, uint32_t index) const {
    return (gain << 32) | (index ^ tie_mask_);
  }
  uint32_t Unpack(uint64_t key) const {
    return static_cast<uint32_t>(key) ^ tie_mask_;
  }

  uint32_t num_elements_;
  KernelPolicy kernel_;
  /// XOR-ed into the key's low half: all ones reverses the index order,
  /// so the max-heap then prefers the lowest index.
  uint32_t tie_mask_;
  std::vector<Row> rows_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_LAZY_GREEDY_H_
