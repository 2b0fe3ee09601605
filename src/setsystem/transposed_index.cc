#include "setsystem/transposed_index.h"

#include <utility>

#include "util/huge_pages.h"

namespace streamcover {

TransposedIndex::Builder::Builder(uint32_t num_elements, uint32_t ranges)
    : num_elements_(num_elements),
      ranges_(ranges),
      // One cache line between ranges, so ranges counted on different
      // threads never share one.
      stride_(static_cast<size_t>(num_elements) + 8) {
  SC_CHECK_GE(ranges, 1u);
  slices_.assign(stride_ * ranges, 0);
}

void TransposedIndex::Builder::PrepareFill() {
  SC_CHECK(!prepared_);
  prepared_ = true;
  counts_ = slices_;
  // One prefix pass in column order: column e starts at offsets_[e],
  // and range r's slice of it right after ranges 0..r-1's slices.
  offsets_.resize(static_cast<size_t>(num_elements_) + 1);
  size_t next = 0;
  for (uint32_t e = 0; e < num_elements_; ++e) {
    offsets_[e] = next;
    for (uint32_t r = 0; r < ranges_; ++r) {
      size_t& slice = slices_[r * stride_ + e];
      const size_t count = slice;
      slice = next;
      next += count;
    }
  }
  offsets_[num_elements_] = next;
  // Entries of at least two huge pages are left unzeroed and advised
  // onto huge pages: the fill sweep is their first touch, and zeroing
  // them first would only fault their pages in serially (0.02–0.06 s
  // for the 80 MB index of iter_disk's store-all guess). Smaller ones
  // are zeroed first: that sequential sweep brings them into cache
  // ahead of the fill's scattered writes, which measured 4–5% faster
  // per solve on serve_mix's 200K-pair instances.
  const size_t bytes = next * sizeof(uint32_t);
  if (bytes >= 2 * kHugePageBytes) {
    entries_ = std::make_unique_for_overwrite<uint32_t[]>(next);
    AdviseHugePages(entries_.get(), bytes);
  } else {
    entries_ = std::make_unique<uint32_t[]>(next);
  }
}

TransposedIndex TransposedIndex::Builder::Build() && {
  SC_CHECK(prepared_);
  // Every counted pair must have been filled: each range's cursor must
  // have advanced by exactly its count, to where the next slice starts.
  for (uint32_t e = 0; e < num_elements_; ++e) {
    size_t end = offsets_[e];
    for (uint32_t r = 0; r < ranges_; ++r) {
      end += counts_[r * stride_ + e];
      SC_CHECK_EQ(slices_[r * stride_ + e], end);
    }
    SC_CHECK_EQ(end, offsets_[e + 1]);
  }
  TransposedIndex index;
  index.offsets_ = std::move(offsets_);
  index.entries_ = std::move(entries_);
  return index;
}

void GainTracker::OnCovered(std::span<const uint32_t> newly_covered) {
  for (uint32_t e : newly_covered) {
    const std::span<const uint32_t> sets = index_->Sets(e);
    for (uint32_t s : sets) {
      SC_DCHECK_LT(s, gains_.size());
      SC_DCHECK_GT(gains_[s], 0u);
      --gains_[s];
    }
    gain_updates_ += sets.size();
  }
}

}  // namespace streamcover
