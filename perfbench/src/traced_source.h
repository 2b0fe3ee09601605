// Forwarding SetSource decorator that times the stream layer from the
// outside.
//
// Wraps any SetSource (the benchmark wraps MmapSetSource) and forwards
// every scan to it, recording one "scan" span per scan call and, when
// the inner source delivers pre-decoded batches, one "dispatch" span
// per batch callback. The time inside callbacks is the scheduler and
// consumer kernels' share of the scan; the rest of the scan call is
// decode, or waiting for the next in-order chunk.
//
// A per-set Scan over a batch-capable source is served through the
// inner ScanBatches and fanned back out to the visitor here, which is
// exactly what MmapSetSource::Scan does itself in pipelined mode; that
// keeps the clock at batch granularity. Over a source without batches
// (serial decode, in-memory) the scan is timed whole and no dispatch
// time is split out.

#ifndef PERFBENCH_TRACED_SOURCE_H_
#define PERFBENCH_TRACED_SOURCE_H_

#include <cstdint>

#include "stream/set_source.h"
#include "trace.h"

namespace perfbench {

/// Work and time the decorator observed.
struct SourceCounters {
  uint64_t scans = 0;
  uint64_t batches = 0;  ///< timed batch callbacks
  uint64_t sets = 0;
  uint64_t elements = 0;
  uint64_t bytes = 0;      ///< encoded repository bytes scanned
  double scan_s = 0;       ///< Σ wall of scan calls
  double dispatch_s = 0;   ///< Σ wall inside batch callbacks
};

class TracedSetSource : public streamcover::SetSource {
 public:
  /// Does not own `inner`. `bytes_per_scan` is the encoded size one full
  /// scan reads. `trace` may be null (counters only).
  TracedSetSource(streamcover::SetSource* inner, uint64_t bytes_per_scan,
                  TraceRecorder* trace);

  uint32_t num_elements() const override { return inner_->num_elements(); }
  uint32_t num_sets() const override { return inner_->num_sets(); }
  bool Scan(const streamcover::SetVisitor& visit) override;
  bool ScanBatches(const streamcover::SetBatchVisitor& visit) override;
  bool SupportsBatchScan() const override;

  /// Parent span for the scan spans (the enclosing solve).
  void set_parent_span(int64_t parent) { parent_span_ = parent; }

  const SourceCounters& counters() const { return counters_; }

 private:
  /// set_scan_threads / set_cancel are not virtual, so the settings the
  /// stream applied to this decorator are mirrored onto the inner
  /// source before every forwarded call.
  void SyncInner() const;

  /// One forwarded scan; `visit` receives whole batches, or single sets
  /// when the inner source has no batch path.
  bool Forward(const streamcover::SetBatchVisitor& visit);

  streamcover::SetSource* inner_;
  const uint64_t bytes_per_scan_;
  TraceRecorder* trace_;
  int64_t parent_span_ = -1;
  SourceCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_SOURCE_H_
