#include "util/bitset.h"

#include "util/check.h"

namespace streamcover {

DynamicBitset::DynamicBitset(size_t size, bool value)
    : size_(size), words_((size + 63) / 64, value ? ~0ULL : 0ULL) {
  if (value && size_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (1ULL << (size_ % 64)) - 1;
  }
}

bool DynamicBitset::Test(size_t i) const {
  SC_DCHECK_LT(i, size_);
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

void DynamicBitset::Set(size_t i) {
  SC_DCHECK_LT(i, size_);
  words_[i / 64] |= 1ULL << (i % 64);
}

void DynamicBitset::Reset(size_t i) {
  SC_DCHECK_LT(i, size_);
  words_[i / 64] &= ~(1ULL << (i % 64));
}

void DynamicBitset::SetAll() {
  for (auto& w : words_) w = ~0ULL;
  if (size_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (1ULL << (size_ % 64)) - 1;
  }
}

size_t DynamicBitset::Count() const {
  size_t c = 0;
  for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
  return c;
}

bool DynamicBitset::Any() const {
  for (uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

size_t DynamicBitset::FindFirst() const {
  for (size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * 64 + static_cast<size_t>(__builtin_ctzll(words_[w]));
    }
  }
  return size_;
}

size_t DynamicBitset::FindNext(size_t i) const {
  if (i + 1 >= size_) return size_;
  size_t start = i + 1;
  size_t w = start / 64;
  uint64_t word = words_[w] & (~0ULL << (start % 64));
  while (true) {
    if (word != 0) {
      return w * 64 + static_cast<size_t>(__builtin_ctzll(word));
    }
    if (++w == words_.size()) return size_;
    word = words_[w];
  }
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  SC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  SC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::AndNot(const DynamicBitset& other) {
  SC_CHECK_EQ(size_, other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

void DynamicBitset::OrInto(DynamicBitset& dst) const {
  SC_CHECK_EQ(size_, dst.size_);
  for (size_t i = 0; i < words_.size(); ++i) dst.words_[i] |= words_[i];
}

bool DynamicBitset::operator==(const DynamicBitset& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::vector<uint32_t> DynamicBitset::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  ForEach([&out](uint32_t i) { out.push_back(i); });
  return out;
}

}  // namespace streamcover
