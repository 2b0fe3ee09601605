#include "traced_offline.h"

#include <chrono>

namespace perfbench {

TracedOfflineSolver::TracedOfflineSolver(
    const streamcover::OfflineSolver& inner, TraceRecorder* trace)
    : inner_(inner), trace_(trace) {}

streamcover::OfflineResult TracedOfflineSolver::Solve(
    const streamcover::SetSystem& system) const {
  ScopedSpan span(trace_, "offline_solve", "offline", parent_span_);
  const auto start = std::chrono::steady_clock::now();
  streamcover::OfflineResult result = inner_.Solve(system);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.calls;
  counters_.sub_sets += system.num_sets();
  counters_.sub_nnz += system.total_size();
  counters_.gain_updates += result.gain_updates;
  counters_.sets_touched += result.sets_touched;
  counters_.solve_s += seconds;
  return result;
}

OfflineCounters TracedOfflineSolver::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace perfbench
