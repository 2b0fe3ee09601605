// Offline SetCover solver interface ("algOfflineSC" in the paper).
//
// iterSetCover (Figure 1.3) and algGeomSC (Figure 4.1) are parameterized
// by an offline solver with approximation factor rho: rho = ln n for the
// polynomial greedy, rho = 1 for the exact solver (the paper's
// "exponential computational power" regime — realized here as
// branch-and-bound with a node budget). Theorem 2.8's O(rho/delta)
// approximation inherits whichever rho the caller picks.

#ifndef STREAMCOVER_OFFLINE_SOLVER_H_
#define STREAMCOVER_OFFLINE_SOLVER_H_

#include <cstdint>
#include <string>

#include "setsystem/cover.h"
#include "setsystem/set_system.h"

namespace streamcover {

/// Result of one offline solve.
struct OfflineResult {
  Cover cover;
  /// True iff `cover` is provably optimal (exact solver within budget).
  bool proven_optimal = false;
  /// Solver-specific work counter (greedy: sets scanned; exact: B&B nodes).
  uint64_t work = 0;
  /// Gain-maintenance accounting (solvers that track residual gains;
  /// zero elsewhere): individual O(1) gain decrements applied, and
  /// candidate-gain evaluations performed. See
  /// setsystem/transposed_index.h for the semantics.
  uint64_t gain_updates = 0;
  uint64_t sets_touched = 0;
};

/// Interface for offline solvers used as algOfflineSC.
class OfflineSolver {
 public:
  virtual ~OfflineSolver() = default;

  /// Covers all coverable elements of `system`. Elements contained in no
  /// set are ignored (callers guarantee coverability where it matters).
  /// May be called from several threads at once (iterSetCover's guesses
  /// solve on PassScheduler's workers), so implementations keep no
  /// mutable state or guard it themselves. The result must depend only
  /// on `system`: iterSetCover solves once for a whole class of
  /// coinciding guesses (core/iter_set_cover.h) and hands every member
  /// that one result, so a solve that varied with call order, thread or
  /// call count would make the collapsed run differ from the
  /// uncollapsed one.
  virtual OfflineResult Solve(const SetSystem& system) const = 0;

  /// The approximation factor rho as a function of the universe size.
  virtual double Rho(uint32_t num_elements) const = 0;

  virtual std::string name() const = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_OFFLINE_SOLVER_H_
