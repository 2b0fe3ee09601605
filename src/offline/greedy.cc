#include "offline/greedy.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "offline/lazy_greedy.h"
#include "util/bitset.h"

namespace streamcover {

OfflineResult GreedySolver::Solve(const SetSystem& system) const {
  LazyGreedyResult run = LazyGreedy::OverSets(system).Run(
      DynamicBitset(system.num_elements(), true));
  OfflineResult result;
  result.cover.set_ids = std::move(run.picks);
  result.work = run.sets_touched;
  result.sets_touched = run.sets_touched;
  result.gain_updates = run.gain_updates;
  return result;
}

double GreedySolver::Rho(uint32_t num_elements) const {
  return std::log(static_cast<double>(std::max(num_elements, 2u))) + 1.0;
}

}  // namespace streamcover
