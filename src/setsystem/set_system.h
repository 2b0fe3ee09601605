// The SetCover instance representation.
//
// A SetSystem (U, F) is a ground set U = {0, ..., n-1} and a family of m
// sets of elements, stored immutably in CSR form (one offsets array, one
// flat element-id array). Sets keep their stream order: set id i is the
// i-th set scanned in a pass. Construction goes through Builder, which
// appends each set to the CSR arena and sorts/deduplicates it in place
// there — generators and IO feed it spans, so no per-set vector is ever
// materialized on the build path. A CSR that is already sorted (an
// iterSetCover guess's compacted projections) is adopted as is through
// FromSortedCsr, without a copy.

#ifndef STREAMCOVER_SETSYSTEM_SET_SYSTEM_H_
#define STREAMCOVER_SETSYSTEM_SET_SYSTEM_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "setsystem/set_view.h"

namespace streamcover {

/// `elements` sorted and duplicate-free, as Builder::AddSet stores them:
/// the span itself when strictly increasing (what the generators and
/// every scan hand over), else a normalized copy held in `scratch`. The
/// text and binary writers normalize through it, so both formats carry
/// the same logical instance.
std::span<const uint32_t> SortedUnique(std::span<const uint32_t> elements,
                                       std::vector<uint32_t>& scratch);

/// Immutable set system (U, F) in CSR layout.
class SetSystem {
 public:
  /// Incremental constructor. Elements out of [0, num_elements) are
  /// rejected with a CHECK; duplicate elements within a set are merged.
  class Builder {
   public:
    explicit Builder(uint32_t num_elements);

    /// Appends a set; returns its id (position in the stream order).
    /// The elements are copied onto the CSR tail and sorted/deduped in
    /// place there — the zero-staging path generators and IO use.
    uint32_t AddSet(std::span<const uint32_t> elements);

    /// Vector / braced-list convenience (tests, ad-hoc construction);
    /// same semantics.
    uint32_t AddSet(const std::vector<uint32_t>& elements) {
      return AddSet(std::span<const uint32_t>(elements));
    }
    uint32_t AddSet(std::initializer_list<uint32_t> elements) {
      return AddSet(
          std::span<const uint32_t>(elements.begin(), elements.size()));
    }

    /// Number of sets added so far.
    uint32_t num_sets() const;

    /// Finalizes. The builder must not be reused afterwards.
    SetSystem Build() &&;

   private:
    uint32_t num_elements_;
    std::vector<size_t> offsets_;
    std::vector<uint32_t> elements_;
  };

  SetSystem() = default;

  /// Adopts a CSR without copying it: `offsets` starts at 0, is
  /// non-decreasing and ends at elements.size(); every set is strictly
  /// ascending and inside [0, num_elements). Order and range are
  /// DCHECKed, so callers own the invariant Builder would establish.
  static SetSystem FromSortedCsr(uint32_t num_elements,
                                 std::vector<size_t> offsets,
                                 std::vector<uint32_t> elements);

  /// |U|.
  uint32_t num_elements() const { return num_elements_; }
  /// |F|.
  uint32_t num_sets() const {
    return static_cast<uint32_t>(offsets_.size()) - 1;
  }
  /// Sum of set sizes (the "input size" mn in the worst case).
  size_t total_size() const { return elements_.size(); }

  /// CSR heap footprint in bytes (offsets + elements arrays). The
  /// serving layer's instance cache charges residents with this.
  uint64_t MemoryBytes() const {
    return static_cast<uint64_t>(offsets_.size()) * sizeof(size_t) +
           static_cast<uint64_t>(elements_.size()) * sizeof(uint32_t);
  }

  /// The elements of set `set_id`, sorted ascending.
  std::span<const uint32_t> GetSet(uint32_t set_id) const;

  /// Borrowed (id, elements) view of set `set_id` — what stream sources
  /// dispatch to consumers.
  SetView GetView(uint32_t set_id) const {
    return SetView{set_id, GetSet(set_id)};
  }

  size_t SetSize(uint32_t set_id) const;

  /// Size of the longest set (0 when there are no sets), cached at
  /// construction so per-request stream forks read it in O(1).
  uint32_t max_set_size() const { return max_set_size_; }

  /// True if `element` is a member of set `set_id` (binary search).
  bool Contains(uint32_t set_id, uint32_t element) const;

 private:
  friend class Builder;
  SetSystem(uint32_t num_elements, std::vector<size_t> offsets,
            std::vector<uint32_t> elements);

  uint32_t num_elements_ = 0;
  std::vector<size_t> offsets_{0};
  std::vector<uint32_t> elements_;
  uint32_t max_set_size_ = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_SETSYSTEM_SET_SYSTEM_H_
