// MergeStage — greedy re-cover over the union of shard candidates.
//
// The second half of the RandGreeDI pattern: the shard engines each
// hand over a bounded candidate buffer, and the merge runs an
// in-memory exact greedy over the union, re-covering the full universe.
// Candidates are deduplicated by set id at insertion — shards produced
// by a partitioner are disjoint by construction, but the stage is the
// seam future candidate producers (overlapping samplers, retries) also
// feed, so duplicates are dropped here and counted rather than assumed
// away.
//
// Representation: candidates above the dense-storage threshold
// (ShouldStoreDense) live as bitset rows in a BitsetCSR and run the
// fused dense kernels at the detected SIMD tier; the rest stay in a
// sparse CSR on the word kernels. Either way the stored footprint and
// the per-query work are the smaller of the two forms.
//
// Merge() runs LazyGreedy (offline/lazy_greedy.h) over both stores,
// numbering candidates in insertion order with the earliest-inserted
// candidate winning gain ties, so the merged cover is a pure function of
// the candidate sequence — identical across kernel tiers, shard
// sources, and thread counts. counters() carries LazyGreedy's work counters.

#ifndef STREAMCOVER_SHARD_MERGE_STAGE_H_
#define STREAMCOVER_SHARD_MERGE_STAGE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "setsystem/cover.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"

namespace streamcover {

struct MergeStageOptions {
  /// epsilon-Partial target, same semantics as RunOptions: the merge
  /// stops once 1 - coverage_fraction of U may stay uncovered.
  double coverage_fraction = 1.0;
};

/// Work accounting for one Merge() call.
struct MergeCounters {
  uint64_t rounds = 0;        ///< picks performed
  uint64_t sets_touched = 0;  ///< candidate-gain evaluations
  uint64_t gain_updates = 0;  ///< tracker decrements
};

struct MergeOutcome {
  Cover cover;            ///< picks, in greedy order
  uint64_t covered = 0;   ///< elements of U the picks cover
  bool success = false;   ///< covered its coverage_fraction target
};

class MergeStage {
 public:
  MergeStage(uint32_t num_elements, uint32_t num_sets,
             MergeStageOptions options);

  /// Records one candidate. A repeated id is dropped (not re-stored)
  /// and counted in duplicates_dropped(). Elements must be the sorted
  /// unique span the stream layer guarantees.
  void AddCandidate(uint32_t id, std::span<const uint32_t> elems);

  /// Exact greedy over everything added so far. Call once.
  MergeOutcome Merge();

  uint64_t candidates() const { return ids_.size(); }
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  uint64_t dense_candidates() const { return dense_.rows(); }
  uint64_t space_words() const { return tracker_.peak_words(); }
  const MergeCounters& counters() const { return counters_; }

 private:
  static constexpr uint32_t kSparse = UINT32_MAX;

  const uint32_t num_elements_;
  const MergeStageOptions options_;

  DynamicBitset seen_ids_;
  uint64_t duplicates_dropped_ = 0;

  // Candidate storage, insertion order: candidate i is either sparse
  // (elems_[offsets_[i], offsets_[i+1]), dense_row_[i] == kSparse) or
  // a dense bitset row (dense_.Row(dense_row_[i])).
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> dense_row_;
  std::vector<size_t> offsets_{0};
  std::vector<uint32_t> elems_;
  BitsetCSR dense_;

  MergeCounters counters_;
  SpaceTracker tracker_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_SHARD_MERGE_STAGE_H_
