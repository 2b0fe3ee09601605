// Max k-Cover: given a budget of k sets, maximize the number of covered
// elements. This is the problem [SG09] actually solved to obtain the
// first streaming SetCover results (their SetCover algorithm runs
// Max k-Cover repeatedly), so the library ships it as a first-class
// offline primitive. Greedy achieves the optimal (1 - 1/e) factor
// [Nemhauser-Wolsey-Fisher].

#ifndef STREAMCOVER_OFFLINE_MAX_COVER_H_
#define STREAMCOVER_OFFLINE_MAX_COVER_H_

#include <cstdint>

#include "setsystem/cover.h"
#include "setsystem/set_system.h"
#include "util/cover_kernels.h"

namespace streamcover {

/// Result of a budgeted coverage maximization.
struct MaxCoverResult {
  Cover cover;              ///< at most `budget` set ids
  uint64_t covered = 0;     ///< elements covered by `cover`
};

/// Greedy Max k-Cover: picks up to `budget` sets, each maximizing the
/// marginal coverage; stops early if coverage is complete. The picks are
/// the first `budget` picks of GreedySolver().Solve(system) (same
/// LazyGreedy run, same larger-id tie rule, capped).
/// Guarantee: covered >= (1 - 1/e) * OPT_k.
MaxCoverResult GreedyMaxCover(const SetSystem& system, uint32_t budget,
                              KernelPolicy kernel = KernelPolicy::kWord);

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_MAX_COVER_H_
