// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around calls into the library's public layers —
// one per scan call, per batch callback, per offline solve, per solve
// and per serve request — never per set. They stay in memory until the
// run ends and are then written as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

/// One recorded interval. `parent` is the id of the span that caused
/// it, or -1 for a root.
struct Span {
  std::string name;
  std::string layer;
  double start_us = 0;
  double end_us = 0;
  int64_t parent = -1;
  uint32_t thread = 0;
};

/// Thread-safe span store. Ids are indices into spans().
class TraceRecorder {
 public:
  TraceRecorder();

  /// Opens a span now and returns its id.
  int64_t Begin(std::string name, std::string layer, int64_t parent);

  /// Closes span `id` now.
  void End(int64_t id);

  std::vector<Span> spans() const;

  /// Sum over spans of each layer of the span's self time: its duration
  /// minus the part of its interval that its child spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Number of spans per layer.
  std::map<std::string, uint64_t> CountByLayer() const;

  /// Chrome trace-event document ("X" complete events, microseconds),
  /// with `metadata` under "otherData".
  streamcover::JsonValue ToChromeJson(streamcover::JsonValue metadata) const;

 private:
  double NowMicros() const;
  uint32_t ThreadIndexLocked();

  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, uint32_t> threads_;  // small stable tids
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* trace, std::string name, std::string layer,
             int64_t parent)
      : trace_(trace),
        id_(trace == nullptr ? -1
                             : trace->Begin(std::move(name), std::move(layer),
                                            parent)) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  TraceRecorder* trace_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
