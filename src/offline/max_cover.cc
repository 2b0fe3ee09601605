#include "offline/max_cover.h"

#include <utility>

#include "offline/lazy_greedy.h"
#include "util/bitset.h"

namespace streamcover {

MaxCoverResult GreedyMaxCover(const SetSystem& system, uint32_t budget,
                              KernelPolicy kernel) {
  LazyGreedyResult run = LazyGreedy::OverSets(system, kernel).Run(
      DynamicBitset(system.num_elements(), true), LazyGreedy::kAllCoverable,
      budget);
  MaxCoverResult result;
  result.cover.set_ids = std::move(run.picks);
  result.covered = run.covered;
  return result;
}

}  // namespace streamcover
