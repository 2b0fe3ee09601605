#include "offline/lazy_greedy.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "setsystem/transposed_index.h"
#include "util/check.h"
#include "util/cover_kernels.h"
#include "util/worker_pool.h"

namespace streamcover {
namespace {

/// Pairs one range of BuildIndex's sweeps must hold: kRangeElementPairs
/// per universe element, for the range's own count row that the builder
/// zeroes, copies, prefix-sums and checks serially (so R·n stays under a
/// quarter of the pairs, and the slice rows never outgrow the entries
/// array), plus kRangeBasePairs for waking a worker. Isolated builds on
/// a 4-vCPU host, four ranges against one, n from 10³ to 2·10⁵: 2–3×
/// faster at 2.5M–33M pairs in every run, 0.7–3.3× from run to run at
/// 0.5M–2M pairs, and slower in most runs below 300K pairs.
constexpr uint64_t kRangeElementPairs = 4;
constexpr uint64_t kRangeBasePairs = uint64_t{1} << 18;

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

LazyGreedy::LazyGreedy(uint32_t num_elements, Ties ties)
    : num_elements_(num_elements),
      tie_mask_(ties == Ties::kLowestIndex ? ~uint32_t{0} : 0) {}

LazyGreedy LazyGreedy::OverSets(const SetSystem& system) {
  LazyGreedy greedy(system.num_elements(), Ties::kHighestIndex);
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

uint32_t LazyGreedy::IndexRanges(const WorkerPool* pool) const {
  if (pool == nullptr || pool->threads() == 1) return 1;
  uint64_t pairs = 0;
  for (const Row& row : rows_) {
    if (row.dense.empty()) {
      pairs += row.sparse.size();
    } else {
      for (uint64_t word : row.dense) pairs += std::popcount(word);
    }
  }
  const uint64_t range_pairs =
      kRangeElementPairs * num_elements_ + kRangeBasePairs;
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(pairs / range_pairs, 1, pool->threads()));
}

TransposedIndex LazyGreedy::BuildIndex() const {
  WorkerPool* pool = WorkerPool::Current();
  const uint32_t ranges = IndexRanges(pool);
  // visit(i, row, range) for every candidate; range r holds candidates
  // [m·r/R, m·(r+1)/R) in order, so every column lists its candidates
  // ascending.
  const uint64_t m = rows_.size();
  auto sweep = [&](const auto& visit) {
    auto body = [&](size_t r) {
      const auto end = static_cast<uint32_t>(m * (r + 1) / ranges);
      for (auto i = static_cast<uint32_t>(m * r / ranges); i < end; ++i) {
        visit(i, rows_[i], static_cast<uint32_t>(r));
      }
    };
    if (ranges == 1) {
      body(0);
    } else {
      pool->ParallelFor(ranges, body);
    }
  };
  TransposedIndex::Builder builder(num_elements_, ranges);
  sweep([&](uint32_t, const Row& row, uint32_t range) {
    if (row.dense.empty()) {
      builder.CountSet(row.sparse, range);
    } else {
      ForEachRowBit(row.dense,
                    [&](uint32_t e) { builder.CountElement(e, range); });
    }
  });
  builder.PrepareFill();
  sweep([&](uint32_t i, const Row& row, uint32_t range) {
    if (row.dense.empty()) {
      builder.FillSet(i, row.sparse, range);
    } else {
      ForEachRowBit(row.dense,
                    [&](uint32_t e) { builder.FillElement(i, e, range); });
    }
  });
  return std::move(builder).Build();
}

LazyGreedyResult LazyGreedy::Run(const DynamicBitset& targets,
                                 uint64_t required) const {
  SC_CHECK_EQ(targets.size(), num_elements_);
  const uint32_t m = static_cast<uint32_t>(rows_.size());
  const TransposedIndex index = BuildIndex();

  // Targets no candidate contains can never be covered: drop them.
  DynamicBitset live = targets;
  for (uint32_t e = 0; e < num_elements_; ++e) {
    if (!index.Coverable(e)) live.Reset(e);
  }
  if (required == kAllCoverable) required = live.Count();

  GainTracker gains(&index, m);
  gains.InitFromMask(live);

  // The bucket queue (see the header). A counting sort by gain lays the
  // initial claims out bucket after bucket, bucket g at [first[g],
  // first[g + 1]); filling in ascending tie-key order leaves each one
  // ascending: candidate order when the larger index wins ties, reverse
  // order when the lower one does.
  uint64_t level = 0;
  for (uint32_t i = 0; i < m; ++i) level = std::max(level, gains.gain(i));
  std::vector<size_t> first(level + 2, 0);
  for (uint32_t i = 0; i < m; ++i) {
    if (gains.gain(i) > 0) ++first[gains.gain(i) + 1];
  }
  for (uint64_t g = 1; g < first.size(); ++g) first[g] += first[g - 1];
  std::vector<uint32_t> initial(first.back());
  {
    std::vector<size_t> fill(first.begin(), first.end() - 1);
    for (uint32_t k = 0; k < m; ++k) {
      const uint32_t i = tie_mask_ == 0 ? k : m - 1 - k;
      const uint64_t gain = gains.gain(i);
      if (gain > 0) initial[fill[gain]++] = i ^ tie_mask_;
    }
  }
  std::vector<std::vector<uint32_t>> moved(level + 1);
  std::vector<uint32_t> top;  // the top bucket's claims, ascending
  ++level;                    // the bucket `top` holds; none yet

  LazyGreedyResult result;
  result.working_words = live.WordCount() + initial.size() +
                         index.word_count() + gains.word_count();
  std::vector<uint32_t> newly;
  while (result.covered < required) {
    while (top.empty() && --level > 0) {
      // Bucket `level` reaches the top: its initial claims merged with
      // the claims that fell to it. Nothing falls to it again while it
      // is the top.
      std::vector<uint32_t>& in = moved[level];
      std::sort(in.begin(), in.end());
      top.resize(first[level + 1] - first[level] + in.size());
      std::merge(initial.begin() + first[level],
                 initial.begin() + first[level + 1], in.begin(), in.end(),
                 top.begin());
      std::vector<uint32_t>().swap(in);
    }
    if (top.empty()) break;  // no candidate with positive gain left
    const uint32_t i = top.back() ^ tie_mask_;
    top.pop_back();
    const uint64_t gain = gains.gain(i);
    ++result.sets_touched;
    if (gain == 0) continue;  // dead claim: covered by earlier picks
    if (gain != level) {
      SC_DCHECK_LT(gain, level);
      moved[gain].push_back(i ^ tie_mask_);
      continue;
    }
    newly.clear();
    const Row& row = rows_[i];
    if (row.dense.empty()) {
      FilterInto(row.sparse, live, newly);
      MarkCovered(newly, live);
    } else {
      FilterIntoDense(row.dense, live, newly);
      MarkCoveredDense(row.dense, live);
    }
    SC_DCHECK_EQ(newly.size(), gain);
    // The pick's own column entries zero its tracked gain along with
    // everyone else's — a picked candidate never needs tombstoning.
    gains.OnCovered(newly);
    result.covered += gain;
    result.picks.push_back(i);
  }
  result.gain_updates = gains.gain_updates();
  result.success = result.covered >= required;
  return result;
}

}  // namespace streamcover
