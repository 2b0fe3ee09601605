// Line-delimited JSON request/response protocol for streamcover_serve.
//
// One request per line, one response line per request, over TCP or
// stdin/stdout — trivially scriptable with `nc` and the CLI alike.
//
// Requests:
//   {"op":"solve","instance":"planted:n=2000","solver":"iter",
//    "deadline_ms":250,"id":"r1",...}          -> the run's record
//       (core/run_record.h) inside the id/ok envelope
//   {"op":"sleep","sleep_ms":100,"deadline_ms":50}  -> deterministic
//       latency for queue/deadline tests; honors cancellation
//   {"op":"stats"}   -> counters + latency percentiles (never queued)
//   {"op":"list"}    -> solvers + resident instances (never queued)
//   {"op":"ping"}    -> {"ok":true} (never queued)
//
// Responses always carry "ok"; failures carry an error object whose
// "code" is machine-matchable: bad_request, not_found, queue_full,
// deadline_exceeded, solve_failed, shutting_down.
//
// Parsing is strict about types (a string where a number belongs is a
// bad_request, not a silent default) because the peer is untrusted
// network input; unknown keys are ignored for forward compatibility.

#ifndef STREAMCOVER_SERVE_PROTOCOL_H_
#define STREAMCOVER_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "core/solver_registry.h"
#include "util/json.h"

namespace streamcover {

/// Machine-matchable error codes carried in responses.
inline constexpr const char kErrBadRequest[] = "bad_request";
inline constexpr const char kErrNotFound[] = "not_found";
inline constexpr const char kErrQueueFull[] = "queue_full";
inline constexpr const char kErrDeadlineExceeded[] = "deadline_exceeded";
inline constexpr const char kErrSolveFailed[] = "solve_failed";
inline constexpr const char kErrShuttingDown[] = "shutting_down";

/// A decoded request line.
struct ServeRequest {
  std::string op;        // solve | sleep | stats | list | ping
  std::string id;        // echoed verbatim in the response; may be empty
  std::string instance;  // cache name (path or workload spec)
  std::string solver;    // solver registry name
  /// Absent = no deadline; 0 = already expired (budget spent upstream).
  std::optional<int64_t> deadline_ms;
  /// Include the cover's set ids in the response (they can be large).
  bool include_cover = false;
  int64_t sleep_ms = 0;  // for op == "sleep"
  /// Solver knobs forwarded into RunOptions; defaults match RunOptions.
  double delta = 0.5;
  uint64_t seed = 1;
  double coverage_fraction = 1.0;
  uint32_t threads = 1;
  /// Decode threads of the binary chunk decoder (range
  /// [1, kMaxScanThreads]); 1 = inline decode, byte-identical results
  /// either way.
  uint32_t scan_threads = 1;
  /// Shard count for the sharded_greedi family (range [1, kMaxShards]).
  uint32_t shards = 1;
};

/// Parses one request line. On failure returns false and fills *error
/// with a diagnostic (code: bad_request).
bool ParseServeRequest(const std::string& line, ServeRequest* request,
                       std::string* error);

/// {"id":...,"ok":false,"error":{"code":...,"message":...}}.
JsonValue ErrorResponse(const std::string& id, const std::string& code,
                        const std::string& message);

/// Successful solve: the id/ok envelope plus RunResultJson's record
/// (core/run_record.h), with the cover's ids if the request asked.
JsonValue SolveResponse(const ServeRequest& request, const RunResult& result);

/// {"id":...,"ok":true} for ping / sleep completions.
JsonValue OkResponse(const std::string& id);

}  // namespace streamcover

#endif  // STREAMCOVER_SERVE_PROTOCOL_H_
