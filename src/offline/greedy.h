// The classic greedy SetCover algorithm, rho = ln n — algOfflineSC as
// iterSetCover runs it on every sampled sub-instance, and the store-all
// rows of Figure 1.1 (offline_greedy, store_all_greedy).
//
// A thin caller of LazyGreedy (offline/lazy_greedy.h): every set is a
// borrowed sparse candidate indexed by its set id, so the system is never
// copied; ties go to the larger set id; the run covers every coverable
// element.

#ifndef STREAMCOVER_OFFLINE_GREEDY_H_
#define STREAMCOVER_OFFLINE_GREEDY_H_

#include "offline/solver.h"
#include "util/cover_kernels.h"

namespace streamcover {

/// Greedy offline solver (H_n <= ln n + 1 approximation).
class GreedySolver : public OfflineSolver {
 public:
  GreedySolver() = default;
  /// Selects the coverage-kernel twin for the picks; results are
  /// identical either way.
  explicit GreedySolver(KernelPolicy kernel) : kernel_(kernel) {}

  OfflineResult Solve(const SetSystem& system) const override;

  double Rho(uint32_t num_elements) const override;

  std::string name() const override { return "greedy"; }

 private:
  KernelPolicy kernel_ = KernelPolicy::kWord;
};

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_GREEDY_H_
