// Streaming access protocol for the set family F.
//
// The paper's model (Section 1): U is known up-front and fits in memory;
// F lives in a read-only repository that can only be scanned
// sequentially, and every full scan is a pass. `SetStream` is the sole
// gateway algorithms get to F — it exposes no random access, and it
// counts passes. Benches read the counter to fill the "passes" column of
// Figure 1.1. The repository itself is pluggable (stream/set_source.h):
// in-memory CSR, a text file re-parsed per pass, or a mapped binary
// file. Each delivers a pass as batches of SetViews (ForEachBatch);
// ForEachSet is the same pass unrolled one set at a time.

#ifndef STREAMCOVER_STREAM_SET_STREAM_H_
#define STREAMCOVER_STREAM_SET_STREAM_H_

#include <cstdint>
#include <memory>
#include <span>

#include "setsystem/set_system.h"
#include "stream/set_source.h"
#include "util/check.h"

namespace streamcover {

/// One sequential scan per ForEachBatch / ForEachSet call; no other
/// access to F.
class SetStream {
 public:
  /// Streams an in-memory system. Does not take ownership; `system`
  /// must outlive the stream.
  explicit SetStream(const SetSystem* system);

  /// Streams an arbitrary source. Does not take ownership; `source`
  /// must outlive the stream.
  explicit SetStream(SetSource* source);

  /// Streams a source the stream owns — the shape every per-request
  /// fork takes (Instance::NewConcurrentStream): the fork has no other
  /// owner, so the stream carries it.
  explicit SetStream(std::unique_ptr<SetSource> source);

  /// Metadata the streaming model grants for free.
  uint32_t num_elements() const { return source_->num_elements(); }
  uint32_t num_sets() const { return source_->num_sets(); }
  /// The source's set-size bound (SetSource::max_set_size): no set a
  /// pass delivers is larger. Only proofs read it, never results.
  uint32_t max_set_size() const { return source_->max_set_size(); }

  /// Performs one pass delivered as contiguous batches in stream order:
  /// invokes fn(std::span<const SetView>) once per batch. Counts as one
  /// pass even if the caller stops consuming early (the scan cursor
  /// cannot be rewound mid-pass). Returns false if the underlying
  /// repository failed mid-scan (see SetSource::ScanBatches); error()
  /// carries the diagnostic and further passes keep failing. A
  /// `filter` narrows this one pass to the sets it names (ScanFilter:
  /// at least those are delivered, possibly more, batches possibly
  /// empty); nullptr delivers every set.
  template <typename Fn>
  bool ForEachBatch(Fn&& fn, const ScanFilter* filter = nullptr) {
    ++passes_;
    source_->set_scan_filter(filter);
    const bool ok =
        source_->ScanBatches(SetBatchVisitor(std::forward<Fn>(fn)));
    source_->set_scan_filter(nullptr);
    return ok;
  }

  /// The same pass, one set at a time: invokes fn(const SetView&) for
  /// every set in stream order. A loop over ForEachBatch, so the
  /// per-set call is inlined and only each batch crosses a
  /// std::function.
  template <typename Fn>
  bool ForEachSet(Fn&& fn) {
    return ForEachBatch([&fn](std::span<const SetView> sets) {
      for (const SetView& set : sets) fn(set);
    });
  }

  /// Sets the decode-worker count of the binary decoder; see
  /// SetSource::set_scan_threads.
  void set_scan_threads(uint32_t threads) {
    source_->set_scan_threads(threads);
  }

  /// The source's sticky scan error; empty while the stream is healthy.
  const std::string& error() const { return source_->error(); }

  /// Arms (or disarms, with nullptr) cooperative cancellation on the
  /// underlying source; see SetSource::set_cancel.
  void set_cancel(const CancelToken* cancel) { source_->set_cancel(cancel); }

  /// Number of passes performed so far. There is deliberately no reset:
  /// multi-trial drivers draw a fresh stream per trial from
  /// Instance::NewStream() (core/instance.h) — RunPlan does this
  /// automatically — so pass counts can never be silently
  /// misattributed by hand-reset shared streams.
  uint64_t passes() const { return passes_; }

 private:
  std::unique_ptr<SetSource> owned_;  // set for the owning ctors
  SetSource* source_;
  uint64_t passes_ = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_SET_STREAM_H_
