// Element sampling for the streaming algorithms.
//
// iterSetCover needs a uniform sample (without replacement) of the
// current residual ground set; Lemma 2.5 (Har-Peled & Sharir) dictates
// its size so that it forms a relative (p,eps)-approximation
// (Definition 2.4) of the family of possible residual sets. DIMV14 and
// algGeomSC draw their samples with the same sampler.

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

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_SAMPLING_H_
