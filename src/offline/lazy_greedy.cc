#include "offline/lazy_greedy.h"

#include <algorithm>
#include <utility>

#include "setsystem/transposed_index.h"
#include "util/check.h"

namespace streamcover {
namespace {

/// Restores the max-heap property after heap[0] was replaced with a
/// smaller key: one sift-down, instead of pop_heap + push_heap walking
/// two root-to-leaf paths and a leaf-to-root path for the same effect.
/// Layout-compatible with std::make_heap / std::pop_heap.
void SiftDownRoot(std::vector<uint64_t>& heap) {
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

/// Visits every set bit of a dense row, ascending.
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

}  // namespace

LazyGreedy::LazyGreedy(uint32_t num_elements, Ties ties, KernelPolicy kernel)
    : num_elements_(num_elements),
      kernel_(kernel),
      tie_mask_(ties == Ties::kLowestIndex ? ~uint32_t{0} : 0) {}

LazyGreedy LazyGreedy::OverSets(const SetSystem& system,
                                KernelPolicy kernel) {
  LazyGreedy greedy(system.num_elements(), Ties::kHighestIndex, kernel);
  greedy.rows_.reserve(system.num_sets());
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    greedy.AddSparse(system.GetSet(s));
  }
  return greedy;
}

void LazyGreedy::AddSparse(std::span<const uint32_t> elems) {
  SC_CHECK_LT(rows_.size(), size_t{UINT32_MAX});
  rows_.push_back({elems, {}});
}

void LazyGreedy::AddDense(std::span<const uint64_t> row) {
  SC_CHECK_LT(rows_.size(), size_t{UINT32_MAX});
  SC_CHECK_EQ(row.size(), (static_cast<size_t>(num_elements_) + 63) / 64);
  rows_.push_back({{}, row});
}

LazyGreedyResult LazyGreedy::Run(const DynamicBitset& targets,
                                 uint64_t required, uint64_t budget) const {
  SC_CHECK_EQ(targets.size(), num_elements_);
  const uint32_t m = static_cast<uint32_t>(rows_.size());

  // Element → candidate-index columns: one count sweep + one fill sweep
  // in candidate order (=> sorted columns).
  TransposedIndex::Builder builder(num_elements_);
  for (const Row& row : rows_) {
    if (row.dense.empty()) {
      builder.CountSet(row.sparse);
    } else {
      ForEachRowBit(row.dense, [&](uint32_t e) { builder.CountElement(e); });
    }
  }
  builder.PrepareFill();
  for (uint32_t i = 0; i < m; ++i) {
    const Row& row = rows_[i];
    if (row.dense.empty()) {
      builder.FillSet(i, row.sparse);
    } else {
      ForEachRowBit(row.dense,
                    [&](uint32_t e) { builder.FillElement(i, e); });
    }
  }
  const TransposedIndex index = std::move(builder).Build();

  // Targets no candidate contains can never be covered: drop them.
  DynamicBitset live = targets;
  for (uint32_t e = 0; e < num_elements_; ++e) {
    if (!index.Coverable(e)) live.Reset(e);
  }
  if (required == kAllCoverable) required = live.Count();

  GainTracker gains(&index, m);
  gains.InitFromMask(live);
  std::vector<uint64_t> heap;
  heap.reserve(m);
  for (uint32_t i = 0; i < m; ++i) {
    const uint64_t gain = gains.gain(i);
    if (gain > 0) heap.push_back(Pack(gain, i));
  }
  std::make_heap(heap.begin(), heap.end());

  LazyGreedyResult result;
  result.working_words = live.WordCount() + heap.size() +
                         index.word_count() + gains.word_count();
  std::vector<uint32_t> newly;
  while (result.covered < required && result.picks.size() < budget &&
         !heap.empty()) {
    const uint64_t top = heap.front();
    const uint32_t i = Unpack(top);
    const uint64_t gain = gains.gain(i);
    ++result.sets_touched;
    if (gain == 0) {
      // Dead entry: fully covered by earlier picks.
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
      continue;
    }
    if (gain != (top >> 32)) {
      heap.front() = Pack(gain, i);
      SiftDownRoot(heap);
      continue;
    }
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
    newly.clear();
    const Row& row = rows_[i];
    if (row.dense.empty()) {
      FilterInto(row.sparse, live, newly, kernel_);
      MarkCovered(newly, live, kernel_);
    } else {
      FilterIntoDense(row.dense, live, newly, kernel_);
      MarkCoveredDense(row.dense, live, kernel_);
    }
    SC_DCHECK_EQ(newly.size(), gain);
    // The pick's own column entries zero its tracked gain along with
    // everyone else's — a popped candidate never needs tombstoning.
    gains.OnCovered(newly);
    result.covered += gain;
    result.picks.push_back(i);
  }
  result.gain_updates = gains.gain_updates();
  result.success = result.covered >= required;
  return result;
}

}  // namespace streamcover
