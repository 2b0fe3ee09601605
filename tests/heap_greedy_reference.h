// The binary-heap greedy loop LazyGreedy ran before its bucket queue,
// kept as an oracle for the queue's exactness.
//
// A flat max-heap of packed (gain << 32 | tie key) entries, aged
// lazily: a root whose claim equals its tracked gain is the pick, a
// stale root is re-keyed in place with one sift-down, and a zero-gain
// root is dropped. Its index is the one-range TransposedIndex build.
// LazyGreedy::Run must reproduce it field for field: picks in order,
// covered, success, sets_touched (heap inspections), gain_updates and
// working_words (the heap's initial size counts the claims).

#ifndef STREAMCOVER_TESTS_HEAP_GREEDY_REFERENCE_H_
#define STREAMCOVER_TESTS_HEAP_GREEDY_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "offline/lazy_greedy.h"
#include "reference_kernels.h"
#include "setsystem/transposed_index.h"
#include "util/bitset.h"

namespace streamcover {

/// A candidate of the reference: sparse (`dense` empty) or dense.
struct ReferenceRow {
  std::span<const uint32_t> sparse;
  std::span<const uint64_t> dense;
};

namespace reference_detail {

/// Restores the max-heap property after heap[0] was replaced with a
/// smaller key.
inline void SiftDownRoot(std::vector<uint64_t>& heap) {
  const size_t n = heap.size();
  const uint64_t value = heap[0];
  size_t i = 0;
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child] < heap[child + 1]) ++child;
    if (heap[child] <= value) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = value;
}

template <typename Fn>
void ForEachRowBit(std::span<const uint64_t> row, Fn&& fn) {
  for (size_t w = 0; w < row.size(); ++w) {
    uint64_t bits = row[w];
    while (bits != 0) {
      fn(static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(__builtin_ctzll(bits))));
      bits &= bits - 1;
    }
  }
}

}  // namespace reference_detail

inline LazyGreedyResult HeapGreedyReference(
    uint32_t num_elements, LazyGreedy::Ties ties,
    const std::vector<ReferenceRow>& rows,
    uint64_t required = LazyGreedy::kAllCoverable) {
  using reference_detail::ForEachRowBit;
  const uint32_t tie_mask =
      ties == LazyGreedy::Ties::kLowestIndex ? ~uint32_t{0} : 0;
  const uint32_t m = static_cast<uint32_t>(rows.size());
  TransposedIndex::Builder builder(num_elements);
  for (const ReferenceRow& row : rows) {
    if (row.dense.empty()) {
      builder.CountSet(row.sparse);
    } else {
      ForEachRowBit(row.dense, [&](uint32_t e) { builder.CountElement(e); });
    }
  }
  builder.PrepareFill();
  for (uint32_t i = 0; i < m; ++i) {
    if (rows[i].dense.empty()) {
      builder.FillSet(i, rows[i].sparse);
    } else {
      ForEachRowBit(rows[i].dense,
                    [&](uint32_t e) { builder.FillElement(i, e); });
    }
  }
  const TransposedIndex index = std::move(builder).Build();

  DynamicBitset live(num_elements, true);
  for (uint32_t e = 0; e < num_elements; ++e) {
    if (!index.Coverable(e)) live.Reset(e);
  }
  if (required == LazyGreedy::kAllCoverable) required = live.Count();

  // Starting gains over the coverable elements, counted per row.
  std::vector<uint32_t> start_gains(m);
  for (uint32_t i = 0; i < m; ++i) {
    start_gains[i] = static_cast<uint32_t>(
        rows[i].dense.empty()
            ? reference::CountUncovered(rows[i].sparse, live)
            : reference::CountUncoveredDense(rows[i].dense, live));
  }
  GainTracker gains(&index, std::move(start_gains));
  auto pack = [&](uint64_t gain, uint32_t i) {
    return (gain << 32) | (i ^ tie_mask);
  };
  std::vector<uint64_t> heap;
  for (uint32_t i = 0; i < m; ++i) {
    if (gains.gain(i) > 0) heap.push_back(pack(gains.gain(i), i));
  }
  std::make_heap(heap.begin(), heap.end());

  LazyGreedyResult result;
  result.working_words = live.WordCount() + heap.size() +
                         index.word_count() + gains.word_count();
  std::vector<uint32_t> newly;
  while (result.covered < required && !heap.empty()) {
    const uint64_t top = heap.front();
    const uint32_t i = static_cast<uint32_t>(top) ^ tie_mask;
    const uint64_t gain = gains.gain(i);
    ++result.sets_touched;
    if (gain == 0) {
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
      continue;
    }
    if (gain != (top >> 32)) {
      heap.front() = pack(gain, i);
      reference_detail::SiftDownRoot(heap);
      continue;
    }
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
    newly.clear();
    if (rows[i].dense.empty()) {
      reference::FilterInto(rows[i].sparse, live, newly);
      reference::MarkCovered(newly, live);
    } else {
      reference::FilterIntoDense(rows[i].dense, live, newly);
      reference::MarkCoveredDense(rows[i].dense, live);
    }
    gains.OnCovered(newly);
    result.covered += gain;
    result.picks.push_back(i);
  }
  result.gain_updates = gains.gain_updates();
  result.success = result.covered >= required;
  return result;
}

}  // namespace streamcover

#endif  // STREAMCOVER_TESTS_HEAP_GREEDY_REFERENCE_H_
