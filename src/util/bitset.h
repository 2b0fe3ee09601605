// Dynamic fixed-capacity bitset.
//
// The workhorse container for element sets: residual ground sets, sample
// membership masks, coverage marks. Word-granular so that the streaming
// space accounting (SpaceTracker) can charge exactly `WordCount()` words.

#ifndef STREAMCOVER_UTIL_BITSET_H_
#define STREAMCOVER_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace streamcover {

/// Fixed-size (at construction) bitset over [0, size).
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset over [0, size), all bits set to `value`.
  explicit DynamicBitset(size_t size, bool value = false);

  size_t size() const { return size_; }

  /// Number of 64-bit words of backing storage (for space accounting).
  size_t WordCount() const { return words_.size(); }

  bool Test(size_t i) const;
  void Set(size_t i);
  void Reset(size_t i);
  void SetAll();

  /// Number of set bits.
  size_t Count() const;

  bool Any() const;
  bool None() const { return !Any(); }

  /// Index of the lowest set bit, or size() if none.
  size_t FindFirst() const;

  /// Index of the lowest set bit strictly greater than i, or size().
  size_t FindNext(size_t i) const;

  /// this &= other / this |= other / this &= ~other. Sizes must match.
  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& AndNot(const DynamicBitset& other);

  /// dst |= *this, word-parallel. Sizes must match. The accumulate-into
  /// twin of operator|= for call sites where the source is const.
  void OrInto(DynamicBitset& dst) const;

  /// Word-granular views of the backing storage, for the word-parallel
  /// coverage kernels (util/cover_kernels.h). Bits at or above size() in
  /// the last word are guaranteed zero and must stay zero through
  /// MutableWords() writes.
  std::span<const uint64_t> Words() const { return words_; }
  std::span<uint64_t> MutableWords() { return words_; }

  bool operator==(const DynamicBitset& other) const;

  /// Collects the indices of all set bits, ascending.
  std::vector<uint32_t> ToVector() const;

  /// Iterates set bits ascending: fn(index).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        fn(static_cast<uint32_t>(w * 64 + static_cast<size_t>(bit)));
        word &= word - 1;
      }
    }
  }

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_BITSET_H_
