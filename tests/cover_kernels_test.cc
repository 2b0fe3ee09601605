// Differential tests for the word-parallel coverage kernels: every
// production kernel, and every compiled SIMD tier of the dense ones,
// must agree with the per-element reference loops of
// reference_kernels.h bit for bit — same counts, same output sequences,
// same final masks — across word-boundary universe sizes (0, 63, 64,
// 65, 127), mask densities from empty to full, and random sorted set
// spans. The reference loops ARE the pre-kernel code shape, so
// agreement here is what keeps every consumer's covers/passes/space
// byte-identical to it.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "gtest/gtest.h"
#include "reference_kernels.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"
#include "util/rng.h"

namespace streamcover {
namespace {

std::vector<uint32_t> RandomSortedSet(uint32_t n, size_t size, Rng& rng) {
  if (n == 0 || size == 0) return {};
  std::vector<uint32_t> elems = rng.SampleWithoutReplacement(
      n, static_cast<uint32_t>(std::min<size_t>(size, n)));
  std::sort(elems.begin(), elems.end());
  return elems;
}

DynamicBitset RandomMask(uint32_t n, double density, Rng& rng) {
  DynamicBitset mask(n);
  for (uint32_t e = 0; e < n; ++e) {
    if (rng.Bernoulli(density)) mask.Set(e);
  }
  return mask;
}

TEST(KernelIsaTest, DetectedTierIsSupportedAndNamed) {
  const KernelIsa detected = DetectKernelIsa();
  const std::vector<KernelIsa> supported = SupportedKernelIsas();
  // kWord is always executable; the detected tier must be one this
  // binary can actually run.
  EXPECT_NE(std::find(supported.begin(), supported.end(), KernelIsa::kWord),
            supported.end());
  EXPECT_NE(std::find(supported.begin(), supported.end(), detected),
            supported.end());
  for (KernelIsa isa : supported) {
    const std::string name = KernelIsaName(isa);
    EXPECT_TRUE(name == "word" || name == "avx2" || name == "avx512") << name;
  }
}

TEST(DenseStorageTest, ThresholdIsOneEighthOfUniverse) {
  // Exactly 1/kDenseStorageRatio of the universe tips into dense.
  EXPECT_TRUE(ShouldStoreDense(16, 128));
  EXPECT_FALSE(ShouldStoreDense(15, 128));
  EXPECT_TRUE(ShouldStoreDense(128, 128));
  EXPECT_FALSE(ShouldStoreDense(0, 128));
  // Non-multiple universe: 1000/8 = 125.
  EXPECT_TRUE(ShouldStoreDense(125, 1000));
  EXPECT_FALSE(ShouldStoreDense(124, 1000));
  // Empty universe never stores dense (no row shape to build).
  EXPECT_FALSE(ShouldStoreDense(0, 0));
  EXPECT_FALSE(ShouldStoreDense(5, 0));
}

TEST(BitsetCSRTest, RowsAreMaskShapedBitsets) {
  BitsetCSR csr(130);
  EXPECT_EQ(csr.num_elements(), 130u);
  EXPECT_EQ(csr.words_per_row(), 3u);
  EXPECT_EQ(csr.rows(), 0u);
  EXPECT_EQ(csr.word_count(), 0u);

  const std::vector<uint32_t> a{0, 63, 64, 129};
  const std::vector<uint32_t> b{};
  EXPECT_EQ(csr.AddRow(std::span<const uint32_t>(a)), 0u);
  EXPECT_EQ(csr.AddRow(std::span<const uint32_t>(b)), 1u);
  EXPECT_EQ(csr.rows(), 2u);
  EXPECT_EQ(csr.word_count(), 6u);

  const std::span<const uint64_t> row0 = csr.Row(0);
  ASSERT_EQ(row0.size(), 3u);
  EXPECT_EQ(row0[0], (1ULL << 0) | (1ULL << 63));
  EXPECT_EQ(row0[1], 1ULL);
  EXPECT_EQ(row0[2], 2ULL);  // bit 129 = word 2, bit 1; tail above is zero
  const std::span<const uint64_t> row1 = csr.Row(1);
  for (uint64_t w : row1) EXPECT_EQ(w, 0u);
}

TEST(LiveMaskTest, ForwardsToBitset) {
  LiveMask mask(130);
  EXPECT_EQ(mask.size(), 130u);
  EXPECT_EQ(mask.WordCount(), 3u);
  EXPECT_TRUE(mask.None());
  mask.Set(0);
  mask.Set(64);
  mask.Set(129);
  EXPECT_TRUE(mask.Test(64));
  EXPECT_EQ(mask.Count(), 3u);
  EXPECT_EQ(mask.ToVector(), (std::vector<uint32_t>{0, 64, 129}));
  mask.Reset(64);
  EXPECT_FALSE(mask.Test(64));
  EXPECT_TRUE(mask.Any());

  LiveMask full(65, true);
  EXPECT_EQ(full.Count(), 65u);
  EXPECT_EQ(full.bits().Count(), 65u);
}

// One (universe, mask, set) case run through every sparse kernel and
// its reference loop.
void ExpectTwinsAgree(const DynamicBitset& mask,
                      const std::vector<uint32_t>& elems) {
  const std::span<const uint32_t> span(elems);

  EXPECT_EQ(reference::CountUncovered(span, mask),
            CountUncovered(span, mask));

  std::vector<uint32_t> scalar_vec{0xDEAD};  // non-empty: appends only
  std::vector<uint32_t> word_vec{0xDEAD};
  const size_t scalar_kept = reference::FilterInto(span, mask, scalar_vec);
  const size_t word_kept = FilterInto(span, mask, word_vec);
  EXPECT_EQ(scalar_kept, word_kept);
  EXPECT_EQ(scalar_vec, word_vec);
  EXPECT_EQ(scalar_vec.size(), 1 + scalar_kept);

  U32Arena scalar_arena;
  scalar_arena.Push(7);  // staged content before the filter must survive
  U32Arena word_arena;
  word_arena.Push(7);
  EXPECT_EQ(reference::FilterInto(span, mask, scalar_arena), scalar_kept);
  EXPECT_EQ(FilterInto(span, mask, word_arena), word_kept);
  EXPECT_EQ(scalar_arena.size(), word_arena.size());
  const auto scalar_tail = scalar_arena.TailFrom(0);
  const auto word_tail = word_arena.TailFrom(0);
  EXPECT_TRUE(std::equal(scalar_tail.begin(), scalar_tail.end(),
                         word_tail.begin(), word_tail.end()));

  EXPECT_EQ(reference::Intersects(span, mask), Intersects(span, mask));

  DynamicBitset scalar_mask = mask;
  DynamicBitset word_mask = mask;
  EXPECT_EQ(reference::MarkCovered(span, scalar_mask),
            MarkCovered(span, word_mask));
  EXPECT_TRUE(scalar_mask == word_mask);
  // The mark count equals the pre-clear gain.
  EXPECT_EQ(MarkCovered(span, word_mask), 0u);
}

TEST(CoverKernelsTest, TwinsAgreeOnWordBoundarySizes) {
  Rng rng(42);
  // Word-boundary universes: empty, one-word, exact word, word + 1 bit,
  // two words - 1 — the tail-handling cases — plus a multi-word size.
  for (uint32_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    DynamicBitset empty(n);
    DynamicBitset full(n, true);
    for (double density : {0.0, 0.05, 0.5, 0.95, 1.0}) {
      DynamicBitset mask = density == 0.0 ? empty
                           : density == 1.0 ? full
                                            : RandomMask(n, density, rng);
      for (size_t set_size : {size_t{0}, size_t{1}, size_t{n / 2},
                              static_cast<size_t>(n)}) {
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " density=" + std::to_string(density) +
                     " set_size=" + std::to_string(set_size));
        ExpectTwinsAgree(mask, RandomSortedSet(n, set_size, rng));
      }
      // Boundary-hugging set: first/last bit of every word.
      std::vector<uint32_t> edges;
      for (uint32_t e = 0; e < n; ++e) {
        if (e % 64 == 0 || e % 64 == 63 || e + 1 == n) edges.push_back(e);
      }
      ExpectTwinsAgree(mask, edges);
    }
  }
}

TEST(CoverKernelsTest, FuzzTwinsAgree) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(300));
    DynamicBitset mask = RandomMask(n, rng.Uniform(101) / 100.0, rng);
    const size_t set_size = rng.Uniform(n + 1);
    ExpectTwinsAgree(mask, RandomSortedSet(n, set_size, rng));
  }
}

TEST(CoverKernelsTest, FilterPreservesSpanOrder) {
  // The kernel must emit survivors in span order, exactly like the
  // reference loop — downstream projection stores depend on it.
  DynamicBitset mask(200, true);
  const std::vector<uint32_t> elems{3, 64, 65, 127, 128, 199};
  std::vector<uint32_t> out;
  FilterInto(std::span<const uint32_t>(elems), mask, out);
  EXPECT_EQ(out, elems);
}

TEST(CoverKernelsTest, MarkCoveredReturnsPreClearGain) {
  DynamicBitset mask(128);
  mask.Set(10);
  mask.Set(63);
  mask.Set(64);
  const std::vector<uint32_t> elems{10, 11, 63, 64, 127};
  DynamicBitset scratch = mask;
  EXPECT_EQ(MarkCovered(std::span<const uint32_t>(elems), scratch), 3u);
  EXPECT_TRUE(scratch.None());
}

TEST(CoverKernelsTest, SetViewAndLiveMaskWrappersMatchSpanKernels) {
  Rng rng(11);
  LiveMask live(RandomMask(150, 0.4, rng));
  const std::vector<uint32_t> elems = RandomSortedSet(150, 60, rng);
  const SetView view{5, std::span<const uint32_t>(elems)};

  EXPECT_EQ(CountUncovered(view, live),
            reference::CountUncovered(view.elems, live.bits()));
  EXPECT_EQ(Intersects(view, live),
            reference::Intersects(view.elems, live.bits()));

  std::vector<uint32_t> via_view;
  FilterInto(view, live, via_view);
  std::vector<uint32_t> via_span;
  reference::FilterInto(view.elems, live.bits(), via_span);
  EXPECT_EQ(via_view, via_span);

  LiveMask marked = live;
  const size_t gain = MarkCovered(view, marked);
  EXPECT_EQ(gain, via_view.size());
  EXPECT_EQ(marked.Count() + gain, live.Count());
}

// One (universe, mask, set) case through every dense kernel and every
// compiled SIMD tier, checked against the dense reference loops and the
// sparse reference over the same elements.
void ExpectDenseTwinsAgree(const DynamicBitset& mask,
                           const std::vector<uint32_t>& elems) {
  const uint32_t n = static_cast<uint32_t>(mask.size());
  BitsetCSR csr(n);
  const uint32_t row_id = csr.AddRow(std::span<const uint32_t>(elems));
  const std::span<const uint64_t> row = csr.Row(row_id);
  const std::span<const uint32_t> span(elems);

  const size_t oracle_count = reference::CountUncovered(span, mask);
  EXPECT_EQ(reference::CountUncoveredDense(row, mask), oracle_count);
  std::vector<uint32_t> sparse_out{0xDEAD};  // appends only
  reference::FilterInto(span, mask, sparse_out);
  DynamicBitset oracle_mask = mask;
  EXPECT_EQ(reference::MarkCovered(span, oracle_mask), oracle_count);
  {
    std::vector<uint32_t> reference_out{0xDEAD};
    EXPECT_EQ(reference::FilterIntoDense(row, mask, reference_out),
              oracle_count);
    EXPECT_EQ(reference_out, sparse_out);
    DynamicBitset reference_mask = mask;
    EXPECT_EQ(reference::MarkCoveredDense(row, reference_mask),
              oracle_count);
    EXPECT_TRUE(reference_mask == oracle_mask);
  }

  // The dispatching kernels, at whatever tier DetectKernelIsa() picks.
  EXPECT_EQ(CountUncoveredDense(row, mask), oracle_count);
  std::vector<uint32_t> dense_out{0xDEAD};
  EXPECT_EQ(FilterIntoDense(row, mask, dense_out), oracle_count);
  EXPECT_EQ(dense_out, sparse_out);
  DynamicBitset dense_mask = mask;
  EXPECT_EQ(MarkCoveredDense(row, dense_mask), oracle_count);
  EXPECT_TRUE(dense_mask == oracle_mask);
  EXPECT_EQ(MarkCoveredDense(row, dense_mask), 0u);

  // Tier-pinned variants: every SIMD path this binary compiled in must
  // match the oracle too, regardless of what DetectKernelIsa() picks.
  for (KernelIsa isa : SupportedKernelIsas()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(isa));
    EXPECT_EQ(CountUncoveredDenseIsa(row, mask.Words(), isa), oracle_count);
    DynamicBitset isa_mask = mask;
    EXPECT_EQ(MarkCoveredDenseIsa(row, isa_mask.MutableWords(), isa),
              oracle_count);
    EXPECT_TRUE(isa_mask == oracle_mask);
  }
}

TEST(DenseKernelsTest, TwinsAgreeOnWordBoundarySizes) {
  Rng rng(43);
  // Same tail-handling universes as the sparse suite; set densities
  // bracket the 1/kDenseStorageRatio storage threshold (below, at,
  // above, and the extremes) — dense rows must stay correct even for
  // sets the policy would keep sparse.
  for (uint32_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    DynamicBitset empty(n);
    DynamicBitset full(n, true);
    for (double mask_density : {0.0, 0.5, 1.0}) {
      DynamicBitset mask = mask_density == 0.0   ? empty
                           : mask_density == 1.0 ? full
                                                 : RandomMask(n, 0.5, rng);
      for (double set_density : {0.0, 0.06, 1.0 / kDenseStorageRatio,
                                 0.3, 1.0}) {
        const size_t set_size =
            static_cast<size_t>(set_density * static_cast<double>(n));
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " mask_density=" + std::to_string(mask_density) +
                     " set_size=" + std::to_string(set_size));
        ExpectDenseTwinsAgree(mask, RandomSortedSet(n, set_size, rng));
      }
      // Boundary-hugging set: first/last bit of every word.
      std::vector<uint32_t> edges;
      for (uint32_t e = 0; e < n; ++e) {
        if (e % 64 == 0 || e % 64 == 63 || e + 1 == n) edges.push_back(e);
      }
      ExpectDenseTwinsAgree(mask, edges);
    }
  }
}

TEST(DenseKernelsTest, FuzzTwinsAgree) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(520));
    DynamicBitset mask = RandomMask(n, rng.Uniform(101) / 100.0, rng);
    const size_t set_size = rng.Uniform(n + 1);
    ExpectDenseTwinsAgree(mask, RandomSortedSet(n, set_size, rng));
  }
}

}  // namespace
}  // namespace streamcover
