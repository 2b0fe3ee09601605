// Element sampling for the streaming algorithms.
//
// iterSetCover needs a uniform sample (without replacement) of the
// current residual ground set; Lemma 2.5 (Har-Peled & Sharir) dictates
// its size so that it forms a relative (p,eps)-approximation
// (Definition 2.4) of the family of possible residual sets. This header
// provides the sampler and a streaming reservoir sampler.

#ifndef STREAMCOVER_STREAM_SAMPLING_H_
#define STREAMCOVER_STREAM_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "util/bitset.h"
#include "util/rng.h"

namespace streamcover {

/// Uniformly samples `k` distinct elements from the set bits of
/// `universe`. If k >= |universe| the whole universe is returned.
/// Output is sorted ascending.
std::vector<uint32_t> SampleFromBitset(const DynamicBitset& universe,
                                       uint64_t k, Rng& rng);

/// Classic reservoir sampler (Algorithm R with Vitter's interface):
/// maintains a uniform sample of size <= capacity over an unbounded
/// stream of items pushed one at a time.
class ReservoirSampler {
 public:
  ReservoirSampler(uint64_t capacity, Rng* rng);

  /// Offers one stream item.
  void Push(uint32_t item);

  /// Items currently held (uniform over everything pushed so far).
  const std::vector<uint32_t>& sample() const { return sample_; }

  uint64_t items_seen() const { return seen_; }

 private:
  uint64_t capacity_;
  uint64_t seen_ = 0;
  Rng* rng_;
  std::vector<uint32_t> sample_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_SAMPLING_H_
