// RunPlan / RunReport — grid execution over the two registries.
//
// The paper's figures are (solver × instance × parameter) grids; this
// layer executes them as data: a RunPlan names solver configurations
// (SolverSpec = registry name + RunOptions) and workload configurations
// (WorkloadSpec = registry name + WorkloadParams), plus the seeds and
// per-seed trial count. ExecutePlan crosses the axes, draws a fresh
// pass-counted stream per trial from the Instance (no shared or
// manually reset counters), and aggregates mean/min/max of every number
// in each run's record (core/run_record.h: cover_size, passes, scans,
// space, gain counters, duration_ms) plus the cover/OPT ratio (when the
// workload plants a bound) into a RunReport that serializes to JSON
// (util/json.h, schema streamcover.run_report.v5) for the perf
// trajectory and external tooling.
//
// Determinism: instances are generated once per (workload, seed) with
// the plan seed; trial t of plan seed s runs the solver with seed
// s * trials + t. Re-executing the same plan reproduces every
// algorithmic cell bit-for-bit; only the measured duration_ms stats
// vary between executions.

#ifndef STREAMCOVER_CORE_RUN_PLAN_H_
#define STREAMCOVER_CORE_RUN_PLAN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/solver_registry.h"
#include "core/workload_registry.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

namespace streamcover {

/// One solver configuration (a row of the grid). The same registry name
/// may appear under several labels with different options — that is how
/// delta sweeps and single-guess space probes are expressed.
struct SolverSpec {
  std::string solver;  ///< SolverRegistry name
  std::string label;   ///< report label; defaults to `solver` when empty
  RunOptions options;

  const std::string& DisplayLabel() const {
    return label.empty() ? solver : label;
  }
};

/// One workload configuration (a column of the grid). `params.seed` is
/// overridden by the plan's seed axis.
struct WorkloadSpec {
  std::string workload;  ///< WorkloadRegistry name
  std::string label;     ///< report label; defaults to `workload`
  WorkloadParams params;

  const std::string& DisplayLabel() const {
    return label.empty() ? workload : label;
  }
};

/// The full grid: solvers × workloads × seeds × trials.
struct RunPlan {
  std::vector<SolverSpec> solvers;
  std::vector<WorkloadSpec> workloads;
  /// Each seed regenerates every generated workload; fixed workloads
  /// (file, deterministic families) are rebuilt but identical.
  std::vector<uint64_t> seeds = {1};
  /// Solver repetitions per (workload, seed) with derived solver seeds.
  uint32_t trials = 1;
};

/// Aggregates for one (solver, workload) cell over all seeds × trials.
struct RunCell {
  std::string solver;    ///< SolverSpec display label
  std::string workload;  ///< WorkloadSpec display label
  uint32_t runs = 0;       ///< dispatched runs that returned ok()
  uint32_t failures = 0;   ///< dispatch failures (error set)
  uint32_t successes = 0;  ///< ok() runs that reported a full cover
  /// cover / planted bound over SUCCESSFUL runs; only populated when
  /// the workload knows OPT.
  RunningStats ratio;
  /// One entry per top-level number of the ok() runs' records
  /// (RunResultJson), keyed and ordered as in the record.
  std::vector<std::pair<std::string, RunningStats>> stats;
  /// Distinct error strings seen (dispatch failures, build failures).
  std::vector<std::string> errors;

  /// The stats of record key `key` ("passes", "space_words", ...);
  /// empty (count 0) when no ok() run reported it.
  const RunningStats& Stat(std::string_view key) const;
};

/// The executed grid. Cells are workload-major: for workload j and
/// solver i, cells[j * solvers + i].
struct RunReport {
  RunPlan plan;  ///< echo of what was executed
  std::vector<RunCell> cells;

  /// Cell by display labels, or nullptr.
  const RunCell* FindCell(std::string_view solver_label,
                          std::string_view workload_label) const;

  /// Full report as a JSON document (schema
  /// "streamcover.run_report.v5": each cell carries runs, failures,
  /// successes, ratio, and a {mean, min, max, count} object per key of
  /// RunCell::stats).
  JsonValue ToJson() const;

  /// Pretty-printed ToJson().
  std::string ToJsonString() const { return ToJson().Dump(2); }

  /// Writes ToJsonString() to `path`; false + *error on IO failure.
  bool WriteJsonFile(const std::string& path,
                     std::string* error = nullptr) const;

  /// One markdown row per cell: workload | solver | cover | ratio |
  /// passes | seq scans | phys scans | space. The shared table shape of
  /// `sweep` and the benches.
  Table SummaryTable() const;
};

/// Executes the grid. Workload build failures and solver dispatch
/// failures are recorded per cell (the grid always completes; nothing
/// aborts). `cancel`, when non-null, is polled between runs AND threaded
/// into each run's RunOptions — a fired token (SIGINT in the CLI) stops
/// the sweep at the next run boundary and returns the partial report.
RunReport ExecutePlan(const RunPlan& plan,
                      const CancelToken* cancel = nullptr);

}  // namespace streamcover

#endif  // STREAMCOVER_CORE_RUN_PLAN_H_
