#include "util/cover_kernels.h"

#include <cstdlib>

#include "util/check.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace streamcover {
namespace {

// The sparse kernels read the mask's backing words directly: one
// aligned 64-bit load answers an element's membership with a shift/AND,
// and the data-dependent branch of a per-element Test() loop (taken ~p
// of the time at mask density p — the misprediction tax the kernels
// exist to remove) becomes straight-line arithmetic. The loops are
// deliberately simple enough for the compiler to unroll and, where
// profitable, vectorize (gather + compress on wide ISAs); the -O3 CI
// leg pins them warnings-clean.

inline uint64_t Bit(std::span<const uint64_t> words, uint32_t e) {
  SC_DCHECK_LT(static_cast<size_t>(e) >> 6, words.size());
  return (words[static_cast<size_t>(e) >> 6] >> (e & 63u)) & 1u;
}

// Branch-free masked compaction: stores every element, advances the
// write cursor only for survivors. `dst` must have room for
// elems.size() words.
inline size_t CompactInto(std::span<const uint32_t> elems,
                          std::span<const uint64_t> words, uint32_t* dst) {
  size_t kept = 0;
  for (uint32_t e : elems) {
    dst[kept] = e;
    kept += static_cast<size_t>(Bit(words, e));
  }
  return kept;
}

// --- Dense kernel variants ----------------------------------------------

// Portable word loops. Four accumulators for the popcount, same
// rationale as the sparse CountUncovered.
size_t CountDenseWord(std::span<const uint64_t> row,
                      std::span<const uint64_t> mask) {
  const size_t n = row.size();
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    c0 += static_cast<uint64_t>(__builtin_popcountll(row[w] & mask[w]));
    c1 += static_cast<uint64_t>(
        __builtin_popcountll(row[w + 1] & mask[w + 1]));
    c2 += static_cast<uint64_t>(
        __builtin_popcountll(row[w + 2] & mask[w + 2]));
    c3 += static_cast<uint64_t>(
        __builtin_popcountll(row[w + 3] & mask[w + 3]));
  }
  for (; w < n; ++w) {
    c0 += static_cast<uint64_t>(__builtin_popcountll(row[w] & mask[w]));
  }
  return static_cast<size_t>(c0 + c1 + c2 + c3);
}

size_t MarkDenseWord(std::span<const uint64_t> row,
                     std::span<uint64_t> mask) {
  size_t cleared = 0;
  for (size_t w = 0; w < row.size(); ++w) {
    cleared += static_cast<size_t>(__builtin_popcountll(row[w] & mask[w]));
    mask[w] &= ~row[w];
  }
  return cleared;
}

#if defined(__x86_64__)

// AVX2 AND+popcount via the vpshufb nibble-LUT: each byte of the
// intersection indexes a 16-entry bit-count table, vpsadbw folds the 32
// per-byte counts into 4 qword lanes. ~4 words per iteration.
__attribute__((target("avx2"))) size_t CountDenseAvx2(
    std::span<const uint64_t> row, std::span<const uint64_t> mask) {
  const size_t n = row.size();
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&row[w])),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&mask[w])));
    const __m256i lo = _mm256_and_si256(v, low_nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi32(v, 4), low_nibble);
    const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                           _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(counts, _mm256_setzero_si256()));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < n; ++w) {
    total += static_cast<uint64_t>(__builtin_popcountll(row[w] & mask[w]));
  }
  return static_cast<size_t>(total);
}

__attribute__((target("avx2"))) size_t MarkDenseAvx2(
    std::span<const uint64_t> row, std::span<uint64_t> mask) {
  const size_t n = row.size();
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_nibble = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&row[w]));
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&mask[w]));
    const __m256i v = _mm256_and_si256(r, m);
    const __m256i lo = _mm256_and_si256(v, low_nibble);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi32(v, 4), low_nibble);
    const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                           _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(counts, _mm256_setzero_si256()));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&mask[w]),
                        _mm256_andnot_si256(r, m));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t cleared = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < n; ++w) {
    cleared +=
        static_cast<uint64_t>(__builtin_popcountll(row[w] & mask[w]));
    mask[w] &= ~row[w];
  }
  return static_cast<size_t>(cleared);
}

// AVX-512 with the native per-qword popcount (VPOPCNTDQ): 8 words per
// iteration, one AND + one vpopcntq + one accumulate.
//
// GCC's avx512fintrin.h implements several intrinsics (andnot among
// them) via _mm512_undefined_epi32, whose deliberate self-init trips
// -Wmaybe-uninitialized under -Werror; silence it for this block only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f,avx512vpopcntdq"))) size_t CountDenseAvx512(
    std::span<const uint64_t> row, std::span<const uint64_t> mask) {
  const size_t n = row.size();
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    const __m512i v = _mm512_and_si512(
        _mm512_loadu_si512(reinterpret_cast<const void*>(&row[w])),
        _mm512_loadu_si512(reinterpret_cast<const void*>(&mask[w])));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  // Manual lane sum: _mm512_reduce_add_epi64 trips GCC's spurious
  // -Wuninitialized inside the intrinsic header under -Werror.
  uint64_t lanes[8];
  _mm512_storeu_si512(reinterpret_cast<void*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                   lanes[5] + lanes[6] + lanes[7];
  for (; w < n; ++w) {
    total += static_cast<uint64_t>(__builtin_popcountll(row[w] & mask[w]));
  }
  return static_cast<size_t>(total);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) size_t MarkDenseAvx512(
    std::span<const uint64_t> row, std::span<uint64_t> mask) {
  const size_t n = row.size();
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    const __m512i r =
        _mm512_loadu_si512(reinterpret_cast<const void*>(&row[w]));
    const __m512i m =
        _mm512_loadu_si512(reinterpret_cast<const void*>(&mask[w]));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(r, m)));
    _mm512_storeu_si512(reinterpret_cast<void*>(&mask[w]),
                        _mm512_andnot_si512(r, m));
  }
  uint64_t lanes[8];
  _mm512_storeu_si512(reinterpret_cast<void*>(lanes), acc);
  uint64_t cleared = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                     lanes[5] + lanes[6] + lanes[7];
  for (; w < n; ++w) {
    cleared +=
        static_cast<uint64_t>(__builtin_popcountll(row[w] & mask[w]));
    mask[w] &= ~row[w];
  }
  return static_cast<size_t>(cleared);
}
#pragma GCC diagnostic pop

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
bool CpuHasAvx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
}

#else  // !defined(__x86_64__)

bool CpuHasAvx2() { return false; }
bool CpuHasAvx512() { return false; }

#endif  // defined(__x86_64__)

KernelIsa ProbeKernelIsa() {
  const char* force = std::getenv("STREAMCOVER_FORCE_SCALAR_ISA");
  if (force != nullptr && force[0] == '1') return KernelIsa::kWord;
  if (CpuHasAvx512()) return KernelIsa::kAvx512;
  if (CpuHasAvx2()) return KernelIsa::kAvx2;
  return KernelIsa::kWord;
}

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kWord:
      return "word";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "word";
}

KernelIsa DetectKernelIsa() {
  static const KernelIsa isa = ProbeKernelIsa();
  return isa;
}

std::vector<KernelIsa> SupportedKernelIsas() {
  std::vector<KernelIsa> isas{KernelIsa::kWord};
  if (CpuHasAvx2()) isas.push_back(KernelIsa::kAvx2);
  if (CpuHasAvx512()) isas.push_back(KernelIsa::kAvx512);
  return isas;
}

size_t CountUncovered(std::span<const uint32_t> elems,
                      const DynamicBitset& mask) {
  // Four independent accumulators keep the adds off the critical path;
  // the remainder tail is at most 3 elements.
  const std::span<const uint64_t> words = mask.Words();
  const size_t n = elems.size();
  uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += Bit(words, elems[i]);
    c1 += Bit(words, elems[i + 1]);
    c2 += Bit(words, elems[i + 2]);
    c3 += Bit(words, elems[i + 3]);
  }
  for (; i < n; ++i) c0 += Bit(words, elems[i]);
  return static_cast<size_t>(c0 + c1 + c2 + c3);
}

size_t FilterInto(std::span<const uint32_t> elems, const DynamicBitset& mask,
                  U32Arena& arena) {
  const size_t mark = arena.size();
  const size_t kept = CompactInto(elems, mask.Words(), arena.Extend(elems.size()));
  arena.RewindTo(mark + kept);
  return kept;
}

size_t FilterInto(std::span<const uint32_t> elems, const DynamicBitset& mask,
                  std::vector<uint32_t>& out) {
  const size_t mark = out.size();
  out.resize(mark + elems.size());
  const size_t kept = CompactInto(elems, mask.Words(), out.data() + mark);
  out.resize(mark + kept);
  return kept;
}

size_t MarkCovered(std::span<const uint32_t> elems, DynamicBitset& mask) {
  // Unconditional read-modify-write: clearing an already-clear bit is
  // a no-op, so the store needs no guard.
  std::span<uint64_t> words = mask.MutableWords();
  size_t cleared = 0;
  for (uint32_t e : elems) {
    const size_t w = static_cast<size_t>(e) >> 6;
    SC_DCHECK_LT(w, words.size());
    const uint64_t bit = uint64_t{1} << (e & 63u);
    cleared += static_cast<size_t>((words[w] & bit) != 0);
    words[w] &= ~bit;
  }
  return cleared;
}

bool Intersects(std::span<const uint32_t> elems, const DynamicBitset& mask) {
  // Branch once per block of 16 instead of once per element; the OR
  // accumulation inside a block is branch-free, and the early exit
  // still fires within 16 elements of the first hit.
  const std::span<const uint64_t> words = mask.Words();
  const size_t n = elems.size();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint64_t any = 0;
    for (size_t j = 0; j < 16; ++j) any |= Bit(words, elems[i + j]);
    if (any != 0) return true;
  }
  uint64_t any = 0;
  for (; i < n; ++i) any |= Bit(words, elems[i]);
  return any != 0;
}

// --- BitsetCSR ----------------------------------------------------------

BitsetCSR::BitsetCSR(uint32_t num_elements)
    : num_elements_(num_elements),
      words_per_row_((static_cast<size_t>(num_elements) + 63) / 64) {}

uint32_t BitsetCSR::AddRow(std::span<const uint32_t> elems) {
  const size_t base = words_.size();
  words_.resize(base + words_per_row_, 0);
  for (uint32_t e : elems) {
    SC_DCHECK_LT(e, num_elements_);
    words_[base + (static_cast<size_t>(e) >> 6)] |= uint64_t{1} << (e & 63u);
  }
  return rows_++;
}

std::span<const uint64_t> BitsetCSR::Row(uint32_t row) const {
  SC_DCHECK_LT(row, rows_);
  return std::span<const uint64_t>(words_)
      .subspan(static_cast<size_t>(row) * words_per_row_, words_per_row_);
}

// --- Dense kernels ------------------------------------------------------

size_t CountUncoveredDenseIsa(std::span<const uint64_t> row,
                              std::span<const uint64_t> mask,
                              KernelIsa isa) {
  SC_DCHECK_EQ(row.size(), mask.size());
#if defined(__x86_64__)
  if (isa == KernelIsa::kAvx512) return CountDenseAvx512(row, mask);
  if (isa == KernelIsa::kAvx2) return CountDenseAvx2(row, mask);
#endif
  (void)isa;
  return CountDenseWord(row, mask);
}

size_t MarkCoveredDenseIsa(std::span<const uint64_t> row,
                           std::span<uint64_t> mask, KernelIsa isa) {
  SC_DCHECK_EQ(row.size(), mask.size());
#if defined(__x86_64__)
  if (isa == KernelIsa::kAvx512) return MarkDenseAvx512(row, mask);
  if (isa == KernelIsa::kAvx2) return MarkDenseAvx2(row, mask);
#endif
  (void)isa;
  return MarkDenseWord(row, mask);
}

size_t CountUncoveredDense(std::span<const uint64_t> row,
                           const DynamicBitset& mask) {
  return CountUncoveredDenseIsa(row, mask.Words(), DetectKernelIsa());
}

size_t FilterIntoDense(std::span<const uint64_t> row,
                       const DynamicBitset& mask,
                       std::vector<uint32_t>& out) {
  SC_DCHECK_EQ(row.size(), mask.WordCount());
  // The extraction is inherently a bit-scan, so it has no SIMD tier:
  // AND per word, then ctz-walk only the surviving bits.
  const std::span<const uint64_t> words = mask.Words();
  size_t kept = 0;
  for (size_t w = 0; w < row.size(); ++w) {
    uint64_t bits = row[w] & words[w];
    kept += static_cast<size_t>(__builtin_popcountll(bits));
    while (bits != 0) {
      out.push_back(static_cast<uint32_t>(
          w * 64 + static_cast<size_t>(__builtin_ctzll(bits))));
      bits &= bits - 1;
    }
  }
  return kept;
}

size_t MarkCoveredDense(std::span<const uint64_t> row, DynamicBitset& mask) {
  return MarkCoveredDenseIsa(row, mask.MutableWords(), DetectKernelIsa());
}

}  // namespace streamcover
