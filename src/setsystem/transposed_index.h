// TransposedIndex + GainTracker — output-sensitive residual-gain
// maintenance (the `transposeRRRSets` idea from GreeDIMM).
//
// Every multi-pass consumer in this library keeps, for some candidate
// family F' and a shrinking uncovered mask U, the residual gains
// |S ∩ U| for S in F'. Recomputing every candidate's gain after each
// pick would cost rounds × |F'| kernel calls touching rounds × nnz(F')
// elements. The transposed index flips the direction: a CSR over
// element → {sets containing it}, built in one counting sweep + one
// fill sweep over the candidates (offline/lazy_greedy.cc builds one per
// greedy run: over each iterSetCover guess's sub-instance, the store-all
// buffer, or the shard merge's candidates — over row ranges on a worker
// pool when the store is large; offline/exact.cc builds one for
// branching). When elements become covered, GainTracker walks
// exactly the affected columns and decrements exact gains — each
// (element, set) pair is touched at most ONCE over the whole run, so
// total maintenance is nnz(F') instead of rounds × nnz(F').
//
// GainTracker is a CoverageDeltaListener, so it can also ride
// PassScheduler's delta bus: streaming consumers that cover elements
// (the threshold sieve) publish their per-pass deltas and any
// registered tracker stays exact without a rescan.
//
// Counters: `gain_updates` counts individual gain decrements (the
// O(1) maintenance ops); consumers report `sets_touched` for the gain
// *evaluations* they perform (pops/rescans) — the pair the sweep report
// and perfbench surface to make output-sensitivity observable.

#ifndef STREAMCOVER_SETSYSTEM_TRANSPOSED_INDEX_H_
#define STREAMCOVER_SETSYSTEM_TRANSPOSED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"
#include "util/coverage_delta.h"

namespace streamcover {

/// CSR over element → indices of the sets that contain it. Set indices
/// are whatever the builder's fill calls said — LazyGreedy's candidate
/// indices, set ids for a whole SetSystem. Columns list
/// sets in fill order (ascending when sets are filled in index order).
class TransposedIndex {
 public:
  TransposedIndex() = default;

  /// Two-phase builder: count every set's elements, PrepareFill(), then
  /// fill the same (set, element) pairs. Both sweeps accept the pairs
  /// in any order, but the fill order defines the column order — fill
  /// sets in ascending index order to get sorted columns.
  ///
  /// Ranged build: a builder over R row ranges counts and fills each
  /// range through its own counters, so the R ranges can run on R
  /// threads at once (every call naming one range must come from one
  /// thread at a time). PrepareFill's one prefix pass gives range r
  /// the slice of every column after ranges 0..r-1's slices, so when
  /// the ranges split the sets into ascending index spans, each filled
  /// in index order, the index equals the one-range build.
  class Builder {
   public:
    explicit Builder(uint32_t num_elements, uint32_t ranges = 1);

    void CountElement(uint32_t element, uint32_t range = 0) {
      SC_DCHECK_LT(element, num_elements_);
      SC_DCHECK_LT(range, ranges_);
      ++slices_[range * stride_ + element];
    }
    void CountSet(std::span<const uint32_t> elems, uint32_t range = 0) {
      for (uint32_t e : elems) CountElement(e, range);
    }

    /// Freezes the counts into column offsets and each range's slice
    /// starts. Call exactly once, between the counting and fill sweeps.
    void PrepareFill();

    void FillElement(uint32_t set_index, uint32_t element,
                     uint32_t range = 0) {
      SC_DCHECK(prepared_);
      SC_DCHECK_LT(range, ranges_);
      entries_[slices_[range * stride_ + element]++] = set_index;
    }
    void FillSet(uint32_t set_index, std::span<const uint32_t> elems,
                 uint32_t range = 0) {
      for (uint32_t e : elems) FillElement(set_index, e, range);
    }

    /// Finishes the index; every counted pair must have been filled,
    /// through the range that counted it.
    TransposedIndex Build() &&;

   private:
    /// Per range, one entry per column: the range's count in that
    /// column, then (after PrepareFill) its fill cursor.
    std::vector<size_t> slices_;
    std::vector<size_t> counts_;  ///< the counts, kept for Build's check
    std::vector<size_t> offsets_;
    std::vector<uint32_t> entries_;
    uint32_t num_elements_ = 0;
    uint32_t ranges_ = 1;
    size_t stride_ = 0;  ///< slices_ entries per range
    bool prepared_ = false;
  };

  uint32_t num_elements() const {
    return static_cast<uint32_t>(
        offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  size_t entry_count() const { return entries_.size(); }

  /// Indices of the sets containing `element`, in fill order.
  std::span<const uint32_t> Sets(uint32_t element) const {
    SC_DCHECK_LT(static_cast<size_t>(element) + 1, offsets_.size());
    return std::span<const uint32_t>(entries_)
        .subspan(offsets_[element],
                 offsets_[element + 1] - offsets_[element]);
  }

  /// True iff some set contains `element` (the coverability test).
  bool Coverable(uint32_t element) const {
    return offsets_[element + 1] > offsets_[element];
  }

  /// Logical 64-bit words retained, for SpaceTracker charging: one word
  /// per offset + half a word per uint32 entry, rounded up.
  uint64_t word_count() const {
    return static_cast<uint64_t>(offsets_.size()) +
           (static_cast<uint64_t>(entries_.size()) + 1) / 2;
  }

 private:
  std::vector<size_t> offsets_;
  std::vector<uint32_t> entries_;
};

/// Exact residual gains for the sets a TransposedIndex covers,
/// maintained decrementally from coverage deltas. `num_sets` is the
/// exclusive upper bound on the set indices the index's columns hold.
class GainTracker final : public CoverageDeltaListener {
 public:
  /// `index` must outlive the tracker. Gains start at zero; call one
  /// Init* before reading them.
  GainTracker(const TransposedIndex* index, uint32_t num_sets)
      : index_(index), gains_(num_sets, 0) {}

  /// gains[s] = |S_s ∩ uncovered| for the current mask, via one sweep
  /// over the uncovered columns. The mask must span the index's
  /// universe.
  void InitFromMask(const DynamicBitset& uncovered);

  uint64_t gain(uint32_t set_index) const {
    SC_DCHECK_LT(set_index, gains_.size());
    return gains_[set_index];
  }
  uint32_t num_sets() const {
    return static_cast<uint32_t>(gains_.size());
  }

  /// Decrements the gain of every set containing a newly covered
  /// element. Elements must be distinct, previously uncovered (at most
  /// once per element over the tracker's lifetime), and < the index's
  /// universe size.
  void OnCovered(std::span<const uint32_t> newly_covered);

  void OnCoverageDelta(std::span<const uint32_t> newly_covered) override {
    OnCovered(newly_covered);
  }

  /// Individual gain decrements applied so far — the output-sensitive
  /// maintenance cost (bounded by the index's entry_count()).
  uint64_t gain_updates() const { return gain_updates_; }

  /// Logical words retained (the gains array, u32-packed).
  uint64_t word_count() const {
    return (static_cast<uint64_t>(gains_.size()) + 1) / 2;
  }

 private:
  const TransposedIndex* index_;
  std::vector<uint32_t> gains_;
  uint64_t gain_updates_ = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_SETSYSTEM_TRANSPOSED_INDEX_H_
