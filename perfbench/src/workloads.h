// The benchmark's workloads.
//
//   iter_disk   iterSetCover from an mmap'd planted binary file: two
//               physical scans, most of the wall in pass-end work.
//   sieve_disk  the [ER14]/[CW16] threshold sieve (p = 4) from an mmap'd
//               sparse binary file: decode, dispatch and kernels, almost
//               no pass-end work.
//   serve_mix   an in-process CoverageServer under closed-loop clients
//               over resident in-memory instances: short concurrent
//               scans, the queue and the cache, no decode.
//
// Each run builds its inputs from the seed alone, times the workload
// with tracing off (end-to-end metrics) or with the layer decorators
// and span recorder on (per-layer metrics), and checks every output.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string_view>

#include "core/solver_registry.h"
#include "flags.h"
#include "metrics.h"
#include "stream/set_source.h"
#include "trace.h"
#include "traced_offline.h"
#include "traced_source.h"

namespace perfbench {

/// iter_disk or sieve_disk. `trace` is non-null exactly for traced runs.
RunOutcome RunDiskWorkload(const BenchFlags& flags, TraceRecorder* trace);

/// serve_mix. `trace` is non-null exactly for traced runs.
RunOutcome RunServeWorkload(const BenchFlags& flags, TraceRecorder* trace);

/// One solve through the decorated layers.
struct TracedSolve {
  streamcover::RunResult result;
  SourceCounters source;
  OfflineCounters offline;
  double wall_s = 0;    ///< solver run, timed over the span RunSolver times
  uint64_t rounds = 0;  ///< scheduler rounds (physical scans)
};

/// Runs registry solver `solver` over `source` wrapped in a
/// TracedSetSource, with the offline solver (options.offline, or
/// GreedySolver(options.kernel) as iterSetCover defaults to) wrapped in
/// a TracedOfflineSolver. The RunContext is built as RunSolver builds
/// it: stream -> set_scan_threads -> PassScheduler(stream, threads,
/// kernel). Results match RunSolver on the same repository.
TracedSolve RunTracedSolve(std::string_view solver,
                           streamcover::SetSource& source,
                           uint64_t bytes_per_scan,
                           streamcover::RunOptions options,
                           TraceRecorder* trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
