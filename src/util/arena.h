// Bump allocation for the columnar hot path.
//
// U32Arena is a contiguous store of 32-bit words that only grows at the
// tail. Consumers stage a run of words at the tail, then either commit
// it (keeping its offset) or rewind; committed runs are addressed by
// (offset, length) because the backing vector may reallocate while later
// runs are staged — spans are materialized on read, when the buffer is
// stable. ResetEpoch drops the content in O(1) and keeps the capacity;
// TakeWords instead hands the whole buffer to its next owner (an offline
// sub-instance), and the arena grows a fresh one for the next epoch.
//
// Growth: a run that outgrows the buffer moves the words to a fresh one
// of max(need, 2·capacity) words. The fresh buffer is advised onto huge
// pages (util/huge_pages.h) before the copy first touches it, so the
// store-all guess's arena (20M words on iter_disk) faults in 2 MiB at a
// time instead of 4 KiB. The buffer stays a std::vector<uint32_t>, so
// TakeWords hands it on unchanged.
//
// This is transient *representation* storage, not streaming "space":
// algorithms keep charging their SpaceTracker in logical words exactly
// as before, so the reported accounting is independent of how the words
// are laid out.

#ifndef STREAMCOVER_UTIL_ARENA_H_
#define STREAMCOVER_UTIL_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/huge_pages.h"

namespace streamcover {

/// Epoch-reset bump store of uint32 words.
class U32Arena {
 public:
  /// Current tail position; the staging mark for the next run.
  size_t size() const { return words_.size(); }
  bool empty() const { return words_.empty(); }

  /// Appends one word at the tail.
  void Push(uint32_t word) {
    if (words_.size() == words_.capacity()) Grow(words_.size() + 1);
    words_.push_back(word);
  }

  /// Grows the tail by `count` words and returns a pointer to the first
  /// new word — the bulk-staging entry the branch-free kernels write
  /// through (store always, advance conditionally). Pair with
  /// RewindTo(mark + kept) to drop the unused tail; the pointer is
  /// valid until the next growth or reset.
  uint32_t* Extend(size_t count) {
    const size_t mark = words_.size();
    if (mark + count > words_.capacity()) Grow(mark + count);
    words_.resize(mark + count);
    return words_.data() + mark;
  }

  /// Drops every word at or after `mark` (abandons a staged run).
  void RewindTo(size_t mark) {
    SC_DCHECK_LE(mark, words_.size());
    words_.resize(mark);
  }

  /// The words in [offset, offset + length). Valid until the next Push
  /// or reset.
  std::span<const uint32_t> SpanAt(size_t offset, size_t length) const {
    SC_DCHECK_LE(offset + length, words_.size());
    return {words_.data() + offset, length};
  }

  /// The staged tail run starting at `mark`.
  std::span<const uint32_t> TailFrom(size_t mark) const {
    return SpanAt(mark, words_.size() - mark);
  }

  /// Moves the buffer out with its content and capacity; the arena is
  /// left empty with no capacity. The epoch counter is unchanged.
  std::vector<uint32_t> TakeWords() { return std::exchange(words_, {}); }

  /// O(1) epoch reset: drops all content, keeps capacity, bumps the
  /// epoch counter.
  void ResetEpoch() {
    words_.clear();
    ++epoch_;
  }

  /// Number of ResetEpoch calls so far.
  uint64_t epoch() const { return epoch_; }

 private:
  /// Moves the words to a fresh buffer of max(need, 2·capacity) words,
  /// advised onto huge pages before the copy first touches it.
  void Grow(size_t need) {
    std::vector<uint32_t> next;
    next.reserve(std::max(need, 2 * words_.capacity()));
    AdviseHugePages(next.data(), next.capacity() * sizeof(uint32_t));
    next.assign(words_.begin(), words_.end());
    words_.swap(next);
  }

  std::vector<uint32_t> words_;
  uint64_t epoch_ = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_ARENA_H_
