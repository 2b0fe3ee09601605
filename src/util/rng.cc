#include "util/rng.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace streamcover {
namespace {

// Samples of at most this many values test membership by a scan.
constexpr uint32_t kScanSampleLimit = 32;
// Table slots kept on the stack (16 KiB); larger samples allocate.
constexpr uint64_t kStackTableSlots = 4096;

inline uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  SC_CHECK_GT(bound, 0u);
  // Lemire's method: multiply-shift with rejection on the low word.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SC_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

std::vector<uint32_t> Rng::SampleWithoutReplacement(uint32_t n, uint32_t k) {
  std::vector<uint32_t> out;
  out.reserve(k);
  SampleWithoutReplacementInto(n, k, out);
  return out;
}

void Rng::SampleWithoutReplacementInto(uint32_t n, uint32_t k,
                                       std::vector<uint32_t>& out) {
  SC_CHECK_LE(k, n);
  // Robert Floyd's algorithm: for j = n-k .. n-1 draw t from [0, j] and
  // keep t, or j if t was kept before. Every value kept earlier is < j,
  // so j itself is always new and only t needs a membership test.
  const size_t base = out.size();
  out.resize(base + k);
  uint32_t* const kept = out.data() + base;
  if (k <= kScanSampleLimit) {
    // Few values: scanning the ones kept so far beats any table.
    for (uint32_t i = 0; i < k; ++i) {
      const uint32_t j = n - k + i;
      const uint32_t t = static_cast<uint32_t>(Uniform(j + 1));
      bool seen = false;
      for (uint32_t p = 0; p < i; ++p) seen |= kept[p] == t;
      kept[i] = seen ? j : t;
    }
    return;
  }
  // Open addressing with linear probing, at most half full. Values are
  // < n <= UINT32_MAX, so UINT32_MAX marks an empty slot.
  constexpr uint32_t kEmpty = UINT32_MAX;
  const int bits = std::bit_width(2 * uint64_t{k} - 1);
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  // Only the first mask + 1 slots are used, and the fill below sets
  // them all; filling the whole array would cost small samples 16 KiB.
  uint32_t stack_table[kStackTableSlots];
  std::vector<uint32_t> heap_table;
  uint32_t* table = stack_table;
  if (mask >= kStackTableSlots) {
    heap_table.resize(mask + 1);
    table = heap_table.data();
  }
  std::fill(table, table + mask + 1, kEmpty);
  // Fibonacci hashing: the top `bits` bits of t times 2^64/phi.
  auto slot_of = [&](uint32_t v) {
    uint64_t slot = (v * 0x9e3779b97f4a7c15ULL) >> (64 - bits);
    while (table[slot] != kEmpty && table[slot] != v) {
      slot = (slot + 1) & mask;
    }
    return slot;
  };
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t j = n - k + i;
    const uint32_t t = static_cast<uint32_t>(Uniform(j + 1));
    uint64_t slot = slot_of(t);
    if (table[slot] == t) {
      kept[i] = j;
      slot = slot_of(j);
    } else {
      kept[i] = t;
    }
    table[slot] = kept[i];
  }
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace streamcover
