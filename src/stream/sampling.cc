#include "stream/sampling.h"

#include <algorithm>

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

}  // namespace streamcover
