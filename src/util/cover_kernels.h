// Word-parallel coverage kernels — the shared inner loop of every
// solver.
//
// Each streaming and offline algorithm in this library spends its hot
// path asking one of three questions about a set against a mask of
// still-uncovered elements: "how much would this set cover?"
// (CountUncovered), "which elements would it cover?" (FilterInto), and
// "cover them" (MarkCovered). This header centralizes those loops so
// every consumer — iterSetCover's Size Test, DIMV14's base pass, the
// [ER14]/[CW16] threshold sieve, the greedy baselines, the offline
// solvers — runs the same kernels instead of a private Test()-per-element
// loop.
//
// Sets come in two representations:
//
//   * sparse spans — the CSR default: a sorted unique uint32 span per
//     set. The kernels above take these.
//   * dense bitset rows (BitsetCSR) — sets whose density clears
//     ShouldStoreDense() are stored as one mask-shaped bitset row, and
//     the *Dense kernels below fuse the count/filter/mark step into a
//     word-AND loop over n/64 words instead of a load per element. At
//     the 1/8 storage threshold the dense row is both smaller (n/64
//     words vs >= n/16) and touches 4x+ fewer words per query.
//
// Each kernel has twins selected by `KernelPolicy`:
//
//   * kScalar — the reference loop: one DynamicBitset::Test per element
//     (or per set bit of a dense row) with a data-dependent branch.
//     This is byte-for-byte the pre-kernel code shape; it exists as the
//     differential-testing oracle and the A/B baseline.
//   * kWord — the branch-free path over the mask's raw 64-bit words:
//     membership is one aligned word load + shift/AND, filtering is
//     masked compaction, marking is an unconditional read-modify-write.
//     The dense twins are pure AND+popcount word loops.
//   * kAuto — kWord for the sparse kernels; for the dense count/mark
//     kernels, runtime dispatch to the widest SIMD variant the CPU
//     supports (DetectKernelIsa(): AVX-512 VPOPCNTDQ > AVX2 > portable
//     word loop). Setting STREAMCOVER_FORCE_SCALAR_ISA=1 in the
//     environment pins kAuto to the portable word loop — the CI leg
//     that proves the fallback path on wide-ISA build hosts.
//
// All twins produce bit-identical results element for element — same
// counts, same output sequences, same final masks — for any span or
// row. The stream layer additionally guarantees spans are sorted
// ascending and duplicate-free (SetSystem::Builder::AddSet enforces it
// for CSR, FileSetSource normalizes on parse), so downstream consumers
// may keep relying on that invariant. tests/cover_kernels_test.cc
// fuzzes the twins (including every compiled SIMD variant) against each
// other across word-boundary sizes and dense-threshold densities.

#ifndef STREAMCOVER_UTIL_COVER_KERNELS_H_
#define STREAMCOVER_UTIL_COVER_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "setsystem/set_view.h"
#include "util/arena.h"
#include "util/bitset.h"

namespace streamcover {

/// Selects the kernel twin. Carried on RunOptions (and from there on
/// every solver's options) so a whole sweep can be flipped to the
/// scalar reference with `--kernel scalar`; results are identical
/// either way, only the inner loop changes.
enum class KernelPolicy : uint8_t {
  kScalar,  ///< per-element Test() reference loop
  kWord,    ///< 64-elements-per-mask-word popcount path (default)
  kAuto,    ///< kWord + runtime SIMD dispatch for the dense kernels
};

/// "scalar" / "word" / "auto".
const char* KernelPolicyName(KernelPolicy policy);

/// Inverse of KernelPolicyName; nullopt for unknown spellings.
std::optional<KernelPolicy> ParseKernelPolicy(std::string_view name);

/// The instruction-set tier the dense kAuto kernels dispatch to.
enum class KernelIsa : uint8_t {
  kWord,    ///< portable uint64 loop (the fallback on any CPU)
  kAvx2,    ///< 256-bit AND + vpshufb nibble-LUT popcount
  kAvx512,  ///< 512-bit AND + VPOPCNTDQ
};

/// "word" / "avx2" / "avx512".
const char* KernelIsaName(KernelIsa isa);

/// The widest tier this CPU supports, probed once and cached. With
/// STREAMCOVER_FORCE_SCALAR_ISA=1 in the environment the probe is
/// skipped and kWord is reported — the knob CI uses to pin the portable
/// fallback on AVX-capable runners.
KernelIsa DetectKernelIsa();

/// Every tier this binary can actually execute here (always includes
/// kWord), ignoring the environment override. Differential tests run
/// each against the scalar oracle.
std::vector<KernelIsa> SupportedKernelIsas();

/// The still-uncovered elements a consumer filters against: a
/// DynamicBitset with the role made explicit. Every ScanConsumer owns
/// one per residual it tracks (space-charged in logical words exactly
/// like the raw bitset it replaces), and the kernels read/update it at
/// the top of the consumer's OnSet.
class LiveMask {
 public:
  LiveMask() = default;
  explicit LiveMask(size_t size, bool value = false) : bits_(size, value) {}
  explicit LiveMask(DynamicBitset bits) : bits_(std::move(bits)) {}

  size_t size() const { return bits_.size(); }
  size_t WordCount() const { return bits_.WordCount(); }
  bool Test(size_t i) const { return bits_.Test(i); }
  void Set(size_t i) { bits_.Set(i); }
  void Reset(size_t i) { bits_.Reset(i); }
  size_t Count() const { return bits_.Count(); }
  bool Any() const { return bits_.Any(); }
  bool None() const { return bits_.None(); }
  std::vector<uint32_t> ToVector() const { return bits_.ToVector(); }

  /// The underlying bitset, for APIs (sampling, kernels, set algebra)
  /// that speak DynamicBitset.
  const DynamicBitset& bits() const { return bits_; }
  DynamicBitset& bits() { return bits_; }

 private:
  DynamicBitset bits_;
};

/// Number of elements of `elems` whose mask bit is set (the set's
/// residual gain). Elements must be < mask.size().
size_t CountUncovered(std::span<const uint32_t> elems,
                      const DynamicBitset& mask, KernelPolicy policy);

/// Appends the elements of `elems` whose mask bit is set to `arena` /
/// `out`, in span order, and returns how many were appended. The vector
/// overload appends (it does not clear).
size_t FilterInto(std::span<const uint32_t> elems, const DynamicBitset& mask,
                  U32Arena& arena, KernelPolicy policy);
size_t FilterInto(std::span<const uint32_t> elems, const DynamicBitset& mask,
                  std::vector<uint32_t>& out, KernelPolicy policy);

/// Clears the mask bit of every element of `elems`; returns how many
/// bits were set before the call (the gain the clear realized).
size_t MarkCovered(std::span<const uint32_t> elems, DynamicBitset& mask,
                   KernelPolicy policy);

/// True iff any element of `elems` has its mask bit set. Early-exits on
/// the first hit — the cheap pre-test a consumer runs before any
/// per-set work.
bool Intersects(std::span<const uint32_t> elems, const DynamicBitset& mask,
                KernelPolicy policy);

// --- Dense representation -------------------------------------------------

/// Storage policy: a set is stored as a dense bitset row once it holds
/// at least 1/kDenseStorageRatio of the universe. At ratio 8 the row
/// (n/64 words) is at most half the sparse span's footprint (>= n/16
/// words of uint32 pairs) and every dense kernel touches n/64 words
/// instead of >= n/8 element loads.
inline constexpr uint32_t kDenseStorageRatio = 8;

constexpr bool ShouldStoreDense(size_t set_size, uint32_t num_elements) {
  return num_elements > 0 &&
         set_size * kDenseStorageRatio >=
             static_cast<size_t>(num_elements);
}

/// CSR of dense bitset rows: each row is a mask-shaped bitset over
/// [0, num_elements), stored contiguously at words_per_row() words.
/// The dense twin of the sparse candidate CSR buffers consumers keep.
class BitsetCSR {
 public:
  explicit BitsetCSR(uint32_t num_elements);

  uint32_t num_elements() const { return num_elements_; }
  size_t words_per_row() const { return words_per_row_; }
  uint32_t rows() const { return rows_; }

  /// Total backing words (for SpaceTracker charging).
  size_t word_count() const { return words_.size(); }

  /// Appends a row built from a sorted unique span with elements
  /// < num_elements(); returns the new row's index.
  uint32_t AddRow(std::span<const uint32_t> elems);

  /// Row `row` as mask-shaped words (words_per_row() of them; bits at
  /// or above num_elements() are zero).
  std::span<const uint64_t> Row(uint32_t row) const;

 private:
  uint32_t num_elements_ = 0;
  size_t words_per_row_ = 0;
  uint32_t rows_ = 0;
  std::vector<uint64_t> words_;
};

// Dense kernels: `row` must be mask-shaped (row.size() ==
// mask.WordCount(), tail bits zero — exactly what BitsetCSR::Row
// returns for a mask over the same universe). Results are bit-identical
// to running the sparse kernel over the row's elements.

/// popcount(row & mask) — the residual gain of a dense set. Fused: one
/// AND+popcount pass, no intersection materialized.
size_t CountUncoveredDense(std::span<const uint64_t> row,
                           const DynamicBitset& mask, KernelPolicy policy);

/// Appends the elements of row & mask to `out`, ascending, and returns
/// how many were appended — the fused count+filter kernel (the count is
/// the return value; no second pass).
size_t FilterIntoDense(std::span<const uint64_t> row,
                       const DynamicBitset& mask, std::vector<uint32_t>& out,
                       KernelPolicy policy);

/// mask &= ~row, returning popcount(row & mask) before the clear — the
/// fused count+mark kernel.
size_t MarkCoveredDense(std::span<const uint64_t> row, DynamicBitset& mask,
                        KernelPolicy policy);

/// True iff (row & mask) has any bit set; early-exits per word.
bool IntersectsDense(std::span<const uint64_t> row, const DynamicBitset& mask,
                     KernelPolicy policy);

/// Tier-pinned variants of the dispatchable dense kernels, for the
/// differential tests that must exercise every compiled SIMD path
/// regardless of what DetectKernelIsa() picks. `isa` must be in
/// SupportedKernelIsas(). Word spans are the mask's Words() /
/// MutableWords().
size_t CountUncoveredDenseIsa(std::span<const uint64_t> row,
                              std::span<const uint64_t> mask, KernelIsa isa);
size_t MarkCoveredDenseIsa(std::span<const uint64_t> row,
                           std::span<uint64_t> mask, KernelIsa isa);

// SetView / LiveMask conveniences: the spellings the consumers use.
inline size_t CountUncovered(const SetView& set, const LiveMask& mask,
                             KernelPolicy policy) {
  return CountUncovered(set.elems, mask.bits(), policy);
}
inline size_t FilterInto(const SetView& set, const LiveMask& mask,
                         U32Arena& arena, KernelPolicy policy) {
  return FilterInto(set.elems, mask.bits(), arena, policy);
}
inline size_t FilterInto(const SetView& set, const LiveMask& mask,
                         std::vector<uint32_t>& out, KernelPolicy policy) {
  return FilterInto(set.elems, mask.bits(), out, policy);
}
inline size_t MarkCovered(const SetView& set, LiveMask& mask,
                          KernelPolicy policy) {
  return MarkCovered(set.elems, mask.bits(), policy);
}
inline bool Intersects(const SetView& set, const LiveMask& mask,
                       KernelPolicy policy) {
  return Intersects(set.elems, mask.bits(), policy);
}

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_COVER_KERNELS_H_
