// Reference coverage kernels: the per-element loops the production
// kernels of util/cover_kernels.h must match bit for bit. Each consults
// the mask with one DynamicBitset::Test per element (or per set bit of
// a dense row) behind a data-dependent branch — the pre-kernel code
// shape. cover_kernels_test checks every production kernel at every
// compiled tier against them, the greedy and threshold oracles run on
// them, and bench_hotpath times them as the baseline of its kernel A/B.

#ifndef STREAMCOVER_TESTS_REFERENCE_KERNELS_H_
#define STREAMCOVER_TESTS_REFERENCE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.h"
#include "util/bitset.h"

namespace streamcover::reference {

inline size_t CountUncovered(std::span<const uint32_t> elems,
                             const DynamicBitset& mask) {
  size_t count = 0;
  for (uint32_t e : elems) {
    if (mask.Test(e)) ++count;
  }
  return count;
}

inline size_t FilterInto(std::span<const uint32_t> elems,
                         const DynamicBitset& mask, U32Arena& arena) {
  size_t kept = 0;
  for (uint32_t e : elems) {
    if (mask.Test(e)) {
      arena.Push(e);
      ++kept;
    }
  }
  return kept;
}

inline size_t FilterInto(std::span<const uint32_t> elems,
                         const DynamicBitset& mask,
                         std::vector<uint32_t>& out) {
  size_t kept = 0;
  for (uint32_t e : elems) {
    if (mask.Test(e)) {
      out.push_back(e);
      ++kept;
    }
  }
  return kept;
}

inline size_t MarkCovered(std::span<const uint32_t> elems,
                          DynamicBitset& mask) {
  size_t cleared = 0;
  for (uint32_t e : elems) {
    if (mask.Test(e)) {
      mask.Reset(e);
      ++cleared;
    }
  }
  return cleared;
}

inline bool Intersects(std::span<const uint32_t> elems,
                       const DynamicBitset& mask) {
  for (uint32_t e : elems) {
    if (mask.Test(e)) return true;
  }
  return false;
}

// Dense rows: walk the row's set bits and consult the mask one element
// at a time.

inline size_t CountUncoveredDense(std::span<const uint64_t> row,
                                  const DynamicBitset& mask) {
  size_t count = 0;
  for (size_t w = 0; w < row.size(); ++w) {
    uint64_t bits = row[w];
    while (bits != 0) {
      const uint32_t e = static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      if (mask.Test(e)) ++count;
      bits &= bits - 1;
    }
  }
  return count;
}

inline size_t FilterIntoDense(std::span<const uint64_t> row,
                              const DynamicBitset& mask,
                              std::vector<uint32_t>& out) {
  size_t kept = 0;
  for (size_t w = 0; w < row.size(); ++w) {
    uint64_t bits = row[w];
    while (bits != 0) {
      const uint32_t e = static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      if (mask.Test(e)) {
        out.push_back(e);
        ++kept;
      }
      bits &= bits - 1;
    }
  }
  return kept;
}

inline size_t MarkCoveredDense(std::span<const uint64_t> row,
                               DynamicBitset& mask) {
  size_t cleared = 0;
  for (size_t w = 0; w < row.size(); ++w) {
    uint64_t bits = row[w];
    while (bits != 0) {
      const uint32_t e = static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      if (mask.Test(e)) {
        mask.Reset(e);
        ++cleared;
      }
      bits &= bits - 1;
    }
  }
  return cleared;
}

}  // namespace streamcover::reference

#endif  // STREAMCOVER_TESTS_REFERENCE_KERNELS_H_
