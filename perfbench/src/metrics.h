// The benchmark's metric catalog and per-run result.
//
// The catalog mirrors BENCHMARK.json at the repository root (run.py
// checks every run's output against it). Every workload reports every
// metric of its mode, so the result line always has the same keys; a
// per-layer metric of a layer the workload does not reach reports 0.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported with tracing off.
std::span<const MetricSpec> EndToEndMetrics();

/// Reported by the traced run.
std::span<const MetricSpec> PerLayerMetrics();

/// What one benchmark run produced.
struct RunOutcome {
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failure diagnostics.
  std::vector<std::string> failures;

  /// Counts one attempted operation; a false `ok` counts it as failed
  /// and keeps `why`.
  void Attempt(bool ok, const std::string& why);
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// every metric of the mode. Per-layer metrics missing from `outcome`
/// report 0; a missing end-to-end metric means the run measured nothing
/// (it failed first), is named in *error, and no line is built.
bool ResultLine(const RunOutcome& outcome, bool trace,
                streamcover::JsonValue* line, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
