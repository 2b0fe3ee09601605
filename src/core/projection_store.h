// Arena-backed storage for per-iteration set projections.
//
// iterSetCover's Size-Test pass (and DIMV14's base case) stores, for
// every light set, its projection onto the live sample. The paper's
// space analysis (Lemma 2.2) charges those stored projections in
// logical words; this store keeps the physical layout columnar — all
// projections of one iteration share one bump arena, addressed by
// (set id, offset, length) refs — so the hardware pays one amortized
// append per element instead of one heap allocation per set.
//
// Life cycle per iteration (epoch):
//   mark = StageMark(); StagePush(e)...        stage while filtering
//   CommitLight(id, mark) or Abandon(mark)     keep the ref or rewind
//   sub = TakeSubInstance(reindex, ...)        compact in place, hand the
//                                              buffer to the offline solve
//   ReleaseEpoch(tracker)                      give the words back
//   ResetEpoch()                               O(1) reset
//
// The hand-off is optional (an iteration whose sample died to heavy sets
// solves nothing). When it happens, the arena's buffer leaves with the
// sub-instance and is freed with it, so the next epoch grows a fresh
// buffer; without it, ResetEpoch keeps the capacity. When the
// sub-instance keeps every element (num_sub_elements == reindex.size(),
// as in an iteration that samples the whole residual of an untouched
// universe), the increasing reindex map onto [0, n) is the identity:
// the words are handed on as staged, and only the offsets and ids are
// laid out.
//
// Accounting discipline: the store counts the logical words (elements
// + one id word per stored projection) its refs pin, and TakeSubInstance
// / ReleaseEpoch / ResetEpoch CHECK that the arena, the refs, and the
// word watermark agree — a desynchronized SpaceTracker attribution
// aborts instead of silently misreporting `projection_words_peak`. The
// words stay charged across the hand-off until ReleaseEpoch, exactly as
// if the projections were still stored.

#ifndef STREAMCOVER_CORE_PROJECTION_STORE_H_
#define STREAMCOVER_CORE_PROJECTION_STORE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "setsystem/set_system.h"
#include "stream/space_tracker.h"
#include "util/arena.h"
#include "util/check.h"

namespace streamcover {

/// Columnar (set id, projection) store with per-iteration epoch reset.
class ProjectionStore {
 public:
  /// One stored projection: `length` arena words starting at `offset`.
  struct Ref {
    uint32_t set_id = 0;
    uint32_t length = 0;
    size_t offset = 0;
  };

  /// Tail position to stage the next projection at.
  size_t StageMark() const { return arena_.size(); }

  /// Appends one element of the projection being staged.
  void StagePush(uint32_t element) { arena_.Push(element); }

  /// The staging arena itself, for kernels (util/cover_kernels.h) that
  /// filter a whole set in one call. Only valid use: appending between
  /// StageMark() and the matching CommitLight()/Abandon().
  U32Arena& staging_arena() { return arena_; }

  /// The projection staged since `mark`.
  std::span<const uint32_t> Staged(size_t mark) const {
    return arena_.TailFrom(mark);
  }

  /// Keeps the staged projection as set `set_id`'s. Counts its logical
  /// words (elements + the id word, the Lemma 2.2 charge); the caller
  /// charges its SpaceTracker by the same amount.
  void CommitLight(uint32_t set_id, size_t mark) {
    const size_t length = arena_.size() - mark;
    refs_.push_back(Ref{set_id, static_cast<uint32_t>(length), mark});
    words_ += length + 1;
  }

  /// Drops the staged projection (heavy or empty sets are not stored).
  void Abandon(size_t mark) { arena_.RewindTo(mark); }

  /// Stored projections of the current epoch, in commit order.
  const std::vector<Ref>& refs() const { return refs_; }

  std::span<const uint32_t> Elements(const Ref& ref) const {
    return arena_.SpanAt(ref.offset, ref.length);
  }

  /// Logical words currently pinned (elements + one id word per ref) —
  /// what the iteration charged its SpaceTracker for projections.
  uint64_t words() const { return words_; }

  /// Epochs completed so far (ResetEpoch calls).
  uint64_t epoch() const { return arena_.epoch(); }

  /// Hands the epoch's projections over as an offline sub-instance on
  /// `num_sub_elements` elements, without a copy. Each projection is
  /// rewritten in place through `reindex` (reindex[e] is e's
  /// sub-instance id, UINT32_MAX drops e); projections left empty are
  /// skipped, the rest keep their commit order, and `set_ids` receives
  /// their original ids. `reindex` must be increasing on the elements it
  /// keeps, so the sorted projections stay sorted; when it keeps all
  /// reindex.size() of them it is the identity and no word is
  /// rewritten. The arena's buffer moves into the returned system; the
  /// store holds no projection afterwards, but its words stay charged
  /// until ReleaseEpoch.
  SetSystem TakeSubInstance(std::span<const uint32_t> reindex,
                            uint32_t num_sub_elements,
                            std::vector<uint32_t>& set_ids) {
    // The refs tile the arena in commit order (each commit starts at
    // the previous tail; heavy and empty stages rewind), as this CHECK
    // pins, so the write cursor never passes the read cursor.
    SC_CHECK_EQ(words_, arena_.size() + refs_.size());
    std::vector<uint32_t> words = arena_.TakeWords();
    std::vector<size_t> offsets{0};
    set_ids.clear();
    if (num_sub_elements == reindex.size()) {
      for (const Ref& ref : refs_) {
        SC_DCHECK_EQ(ref.offset, offsets.back());
        if (ref.length == 0) continue;
        offsets.push_back(ref.offset + ref.length);
        set_ids.push_back(ref.set_id);
      }
      return HandOff(num_sub_elements, std::move(offsets), std::move(words));
    }
    size_t write = 0;
    for (const Ref& ref : refs_) {
      SC_DCHECK_LE(write, ref.offset);
      for (size_t read = ref.offset; read < ref.offset + ref.length;
           ++read) {
        // Store always, advance only on a kept element (branch-free).
        const uint32_t sub = reindex[words[read]];
        words[write] = sub;
        write += sub != UINT32_MAX;
      }
      if (write == offsets.back()) continue;  // emptied by heavy sets
      offsets.push_back(write);
      set_ids.push_back(ref.set_id);
    }
    words.resize(write);
    return HandOff(num_sub_elements, std::move(offsets), std::move(words));
  }

  /// Releases this epoch's projection words from `tracker`, checking
  /// that the watermark attribution matches the stored content exactly
  /// (TakeSubInstance made the same check before it emptied the store).
  void ReleaseEpoch(SpaceTracker& tracker) {
    if (!handed_off_) SC_CHECK_EQ(words_, arena_.size() + refs_.size());
    tracker.Release(words_);
    words_ = 0;
  }

  /// O(1) reset to an empty epoch. The epoch's words must have been
  /// released first: resetting the arena also resets the
  /// projection-word attribution, never strands it.
  void ResetEpoch() {
    SC_CHECK_EQ(words_, 0u);
    refs_.clear();
    arena_.ResetEpoch();
    handed_off_ = false;
  }

 private:
  /// Ends TakeSubInstance: the store keeps no ref, and the laid-out
  /// CSR becomes the sub-instance.
  SetSystem HandOff(uint32_t num_sub_elements, std::vector<size_t> offsets,
                    std::vector<uint32_t> words) {
    refs_.clear();
    handed_off_ = true;
    return SetSystem::FromSortedCsr(num_sub_elements, std::move(offsets),
                                    std::move(words));
  }

  U32Arena arena_;
  std::vector<Ref> refs_;
  uint64_t words_ = 0;
  bool handed_off_ = false;  ///< TakeSubInstance ran this epoch
};

}  // namespace streamcover

#endif  // STREAMCOVER_CORE_PROJECTION_STORE_H_
