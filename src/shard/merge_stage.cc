#include "shard/merge_stage.h"

#include "offline/lazy_greedy.h"
#include "util/check.h"
#include "util/mathutil.h"

namespace streamcover {

MergeStage::MergeStage(uint32_t num_elements, uint32_t num_sets,
                       MergeStageOptions options)
    : num_elements_(num_elements),
      options_(options),
      seen_ids_(num_sets),
      dense_(num_elements) {
  tracker_.Charge(seen_ids_.WordCount());
}

void MergeStage::AddCandidate(uint32_t id,
                              std::span<const uint32_t> elems) {
  SC_CHECK_LT(id, seen_ids_.size());
  if (seen_ids_.Test(id)) {
    ++duplicates_dropped_;
    return;
  }
  seen_ids_.Set(id);
  ids_.push_back(id);
  if (ShouldStoreDense(elems.size(), num_elements_)) {
    dense_row_.push_back(dense_.AddRow(elems));
    offsets_.push_back(elems_.size());
    tracker_.Charge(dense_.words_per_row() + 1);
  } else {
    dense_row_.push_back(kSparse);
    elems_.insert(elems_.end(), elems.begin(), elems.end());
    offsets_.push_back(elems_.size());
    tracker_.Charge(elems.size() + 1);
  }
}

MergeOutcome MergeStage::Merge() {
  LazyGreedy greedy(num_elements_, LazyGreedy::Ties::kLowestIndex);
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (dense_row_[i] != kSparse) {
      greedy.AddDense(dense_.Row(dense_row_[i]));
    } else {
      greedy.AddSparse(std::span<const uint32_t>(elems_).subspan(
          offsets_[i], offsets_[i + 1] - offsets_[i]));
    }
  }
  const uint64_t required =
      num_elements_ - AllowedUncovered(num_elements_,
                                       options_.coverage_fraction);
  LazyGreedyResult run =
      greedy.Run(DynamicBitset(num_elements_, true), required);
  // Working state, then one cover word per pick.
  tracker_.Charge(run.working_words + run.picks.size());
  counters_.rounds = run.picks.size();
  counters_.sets_touched = run.sets_touched;
  counters_.gain_updates = run.gain_updates;

  MergeOutcome outcome;
  for (uint32_t i : run.picks) outcome.cover.set_ids.push_back(ids_[i]);
  outcome.covered = run.covered;
  outcome.success = run.success;
  return outcome;
}

}  // namespace streamcover
