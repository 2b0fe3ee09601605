// Forwarding OfflineSolver decorator: times every offline solve that a
// sampling algorithm (iterSetCover) makes between passes, and counts the
// sub-instances it is handed. Passed to the solver through the public
// RunOptions::offline field.

#ifndef PERFBENCH_TRACED_OFFLINE_H_
#define PERFBENCH_TRACED_OFFLINE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "offline/solver.h"
#include "trace.h"

namespace perfbench {

struct OfflineCounters {
  uint64_t calls = 0;
  uint64_t sub_sets = 0;  ///< Σ sets of the solved sub-instances
  uint64_t sub_nnz = 0;   ///< Σ elements of the solved sub-instances
  uint64_t gain_updates = 0;
  uint64_t sets_touched = 0;
  double solve_s = 0;     ///< Σ busy time inside Solve
};

class TracedOfflineSolver : public streamcover::OfflineSolver {
 public:
  /// Does not own `inner`. `trace` may be null (counters only).
  TracedOfflineSolver(const streamcover::OfflineSolver& inner,
                      TraceRecorder* trace);

  /// Thread-safe: callers may solve from several threads at once.
  streamcover::OfflineResult Solve(
      const streamcover::SetSystem& system) const override;
  double Rho(uint32_t num_elements) const override {
    return inner_.Rho(num_elements);
  }
  std::string name() const override { return inner_.name(); }

  /// Parent span for the offline-solve spans (the enclosing solve).
  void set_parent_span(int64_t parent) { parent_span_ = parent; }

  OfflineCounters counters() const;

 private:
  const streamcover::OfflineSolver& inner_;
  TraceRecorder* trace_;
  int64_t parent_span_ = -1;
  mutable std::mutex mu_;
  mutable OfflineCounters counters_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_OFFLINE_H_
