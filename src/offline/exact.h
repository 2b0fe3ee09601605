// Exact SetCover via branch-and-bound, rho = 1.
//
// Realizes the paper's "exponential computational power" offline solver
// on the instance sizes where it matters: the sampled sub-instances of
// iterSetCover and the Section 5/6 lower-bound gadgets. Techniques:
//   * dominance elimination at the root (subset sets are dropped),
//   * unit propagation (an uncovered element with one live candidate
//     forces that set),
//   * min-degree element branching, children ordered by residual gain,
//   * two lower bounds: ceil(residual / max set size) and a greedy
//     disjoint-witness packing bound,
//   * a node budget; the result reports whether optimality was proven,
//   * an optional CancelToken, polled every 64 nodes, that stops the
//     search as the budget does — so a deadline-bounded run
//     (RunOptions::cancel) ends within about one poll interval.

#ifndef STREAMCOVER_OFFLINE_EXACT_H_
#define STREAMCOVER_OFFLINE_EXACT_H_

#include "offline/solver.h"
#include "util/cancel_token.h"

namespace streamcover {

/// Exact branch-and-bound offline solver.
class ExactSolver : public OfflineSolver {
 public:
  static constexpr uint64_t kDefaultMaxNodes = 50'000'000;

  /// `max_nodes` caps the search; on exhaustion Solve returns the best
  /// incumbent with proven_optimal = false. A fired `cancel` (polled
  /// every 64 nodes; must outlive Solve) stops it the same way, so a
  /// cancelled Solve depends on timing, not only on the system: the
  /// registry's offline_exact fails such a run with deadline_exceeded.
  explicit ExactSolver(uint64_t max_nodes = kDefaultMaxNodes,
                       const CancelToken* cancel = nullptr);

  OfflineResult Solve(const SetSystem& system) const override;

  double Rho(uint32_t /*num_elements*/) const override { return 1.0; }

  std::string name() const override { return "exact-bnb"; }

 private:
  uint64_t max_nodes_;
  const CancelToken* cancel_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_EXACT_H_
