// RunResultJson — the one record of a run, reported by every entry point.
//
// A RunResult (core/solver_registry.h) reaches users three ways: the
// CLI's solve line, each sweep cell of a RunReport (core/run_plan.h) and
// serve's solve response (serve/protocol.h). All three are built from
// the JSON object RunResultJson returns, so this is the only code that
// names RunResult's fields for output: a new field is one Set below, and
// every entry point shows it.
//
// The record, in key order:
//   solver, instance, success, cover_size, passes, sequential_scans,
//   physical_scans, space_words, projection_words_peak, gain_updates,
//   sets_touched, duration_ms
//   shards  rows of ShardStat, and
//   merge   the MergeStat object — both only when shard_stats is
//           non-empty (the sharded solvers)
//   cover   the cover's set ids, when asked for
// Counters are JSON integers; duration_ms is the one double.

#ifndef STREAMCOVER_CORE_RUN_RECORD_H_
#define STREAMCOVER_CORE_RUN_RECORD_H_

#include <string>

#include "core/solver_registry.h"
#include "util/json.h"

namespace streamcover {

/// The run's record (see above); `include_cover` adds the cover's ids.
JsonValue RunResultJson(const RunResult& result, bool include_cover);

/// The record as one line of space-separated `key=value` pairs: every
/// top-level scalar except `instance` and `duration_ms`, in record
/// order, strings bare and other scalars as JSON. Those two keys are
/// the ones that differ between backends and between runs, so lines
/// of one run over different backends compare byte for byte.
std::string RunRecordLine(const JsonValue& record);

}  // namespace streamcover

#endif  // STREAMCOVER_CORE_RUN_RECORD_H_
