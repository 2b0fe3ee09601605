#include "metrics.h"

namespace perfbench {
namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"solve_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cover_size", "count"},
    {"passes", "count"},
    {"physical_scans", "count"},
    {"space_words", "words"},
    {"serve_rps", "req/s"},
    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"setup.generate_s", "s"},
    {"setup.open_s", "s"},
    {"setup.preload_s", "s"},
    {"stream.scan_s", "s"},
    {"stream.wait_s", "s"},
    {"stream.sets", "count"},
    {"stream.bytes", "bytes"},
    {"stream.batches", "count"},
    {"stream.bare_gbps", "GB/s"},
    {"sched.dispatch_s", "s"},
    {"sched.rounds", "count"},
    {"passend.wall_s", "s"},
    {"passend.build_s", "s"},
    {"offline.solve_s", "s"},
    {"offline.calls", "count"},
    {"offline.sub_sets", "count"},
    {"offline.sub_nnz", "count"},
    {"offline.gain_updates", "count"},
    {"offline.sets_touched", "count"},
    {"shard.merge_ms_p50", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.run_ms_p99", "ms"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.overhead_ms_p99", "ms"},
    {"serve.cache_misses", "count"},
    {"trace.overhead_frac", "ratio"},
};

constexpr size_t kMaxKeptFailures = 20;

}  // namespace

std::span<const MetricSpec> EndToEndMetrics() { return kEndToEnd; }

std::span<const MetricSpec> PerLayerMetrics() { return kPerLayer; }

void RunOutcome::Attempt(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < kMaxKeptFailures) failures.push_back(why);
}

bool ResultLine(const RunOutcome& outcome, bool trace,
                streamcover::JsonValue* line, std::string* error) {
  streamcover::JsonValue metrics = streamcover::JsonValue::Object();
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = outcome.metrics.find(spec.name);
    const bool found = it != outcome.metrics.end();
    if (!found && !trace) {
      *error = std::string("metric '") + spec.name + "' was not measured";
      return false;
    }
    streamcover::JsonValue metric = streamcover::JsonValue::Object();
    metric.Set("value", found ? it->second : 0.0);
    metric.Set("unit", spec.unit);
    metrics.Set(spec.name, std::move(metric));
  }
  *line = streamcover::JsonValue::Object();
  line->Set("correct", outcome.failed == 0 && outcome.attempted > 0);
  line->Set("attempted", outcome.attempted);
  line->Set("failed", outcome.failed);
  line->Set("metrics", std::move(metrics));
  return true;
}

}  // namespace perfbench
