#include "stream/sampling.h"

#include <algorithm>

#include "util/check.h"

namespace streamcover {

std::vector<uint32_t> SampleFromBitset(const DynamicBitset& universe,
                                       uint64_t k, Rng& rng) {
  std::vector<uint32_t> population = universe.ToVector();
  if (k >= population.size()) return population;
  // Partial Fisher-Yates: first k slots become the sample.
  for (uint64_t i = 0; i < k; ++i) {
    uint64_t j = i + rng.Uniform(population.size() - i);
    std::swap(population[i], population[j]);
  }
  population.resize(k);
  std::sort(population.begin(), population.end());
  return population;
}

ReservoirSampler::ReservoirSampler(uint64_t capacity, Rng* rng)
    : capacity_(capacity), rng_(rng) {
  SC_CHECK(rng != nullptr);
  sample_.reserve(capacity);
}

void ReservoirSampler::Push(uint32_t item) {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(item);
    return;
  }
  uint64_t j = rng_->Uniform(seen_);
  if (j < capacity_) sample_[j] = item;
}

}  // namespace streamcover
