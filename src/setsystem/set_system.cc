#include "setsystem/set_system.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace streamcover {

std::span<const uint32_t> SortedUnique(std::span<const uint32_t> elements,
                                       std::vector<uint32_t>& scratch) {
  if (std::adjacent_find(elements.begin(), elements.end(),
                         std::greater_equal<uint32_t>()) == elements.end()) {
    return elements;
  }
  scratch.assign(elements.begin(), elements.end());
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  return scratch;
}

SetSystem::Builder::Builder(uint32_t num_elements)
    : num_elements_(num_elements), offsets_{0} {}

uint32_t SetSystem::Builder::AddSet(std::span<const uint32_t> elements) {
  const size_t start = elements_.size();
  elements_.insert(elements_.end(), elements.begin(), elements.end());
  const auto first = elements_.begin() + static_cast<ptrdiff_t>(start);
  std::sort(first, elements_.end());
  elements_.erase(std::unique(first, elements_.end()), elements_.end());
  if (elements_.size() > start) {
    SC_CHECK_LT(elements_.back(), num_elements_);
  }
  offsets_.push_back(elements_.size());
  return static_cast<uint32_t>(offsets_.size()) - 2;
}

uint32_t SetSystem::Builder::num_sets() const {
  return static_cast<uint32_t>(offsets_.size()) - 1;
}

SetSystem SetSystem::Builder::Build() && {
  return SetSystem(num_elements_, std::move(offsets_), std::move(elements_));
}

SetSystem SetSystem::FromSortedCsr(uint32_t num_elements,
                                   std::vector<size_t> offsets,
                                   std::vector<uint32_t> elements) {
  SC_DCHECK(!offsets.empty() && offsets.front() == 0);
  SC_DCHECK_EQ(offsets.back(), elements.size());
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    SC_DCHECK_LE(offsets[s], offsets[s + 1]);
    for (size_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      SC_DCHECK_LT(elements[i], num_elements);
      SC_DCHECK(i == offsets[s] || elements[i - 1] < elements[i]);
    }
  }
  return SetSystem(num_elements, std::move(offsets), std::move(elements));
}

SetSystem::SetSystem(uint32_t num_elements, std::vector<size_t> offsets,
                     std::vector<uint32_t> elements)
    : num_elements_(num_elements),
      offsets_(std::move(offsets)),
      elements_(std::move(elements)) {
  for (size_t s = 0; s + 1 < offsets_.size(); ++s) {
    max_set_size_ = std::max(
        max_set_size_, static_cast<uint32_t>(offsets_[s + 1] - offsets_[s]));
  }
}

std::span<const uint32_t> SetSystem::GetSet(uint32_t set_id) const {
  SC_DCHECK_LT(set_id, num_sets());
  return {elements_.data() + offsets_[set_id],
          offsets_[set_id + 1] - offsets_[set_id]};
}

size_t SetSystem::SetSize(uint32_t set_id) const {
  SC_DCHECK_LT(set_id, num_sets());
  return offsets_[set_id + 1] - offsets_[set_id];
}

bool SetSystem::Contains(uint32_t set_id, uint32_t element) const {
  auto s = GetSet(set_id);
  return std::binary_search(s.begin(), s.end(), element);
}

}  // namespace streamcover
