#include "traced_source.h"

#include <chrono>

namespace perfbench {

using streamcover::SetBatchVisitor;
using streamcover::SetView;
using streamcover::SetVisitor;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

TracedSetSource::TracedSetSource(streamcover::SetSource* inner,
                                 uint64_t bytes_per_scan, TraceRecorder* trace)
    : inner_(inner), bytes_per_scan_(bytes_per_scan), trace_(trace) {}

void TracedSetSource::SyncInner() const {
  inner_->set_scan_threads(scan_threads());
  inner_->set_cancel(cancel_token());
}

bool TracedSetSource::SupportsBatchScan() const {
  SyncInner();
  return inner_->SupportsBatchScan();
}

bool TracedSetSource::Scan(const SetVisitor& visit) {
  return Forward([&visit](std::span<const SetView> sets) {
    for (const SetView& set : sets) visit(set);
  });
}

bool TracedSetSource::ScanBatches(const SetBatchVisitor& visit) {
  return Forward(visit);
}

bool TracedSetSource::Forward(const SetBatchVisitor& visit) {
  if (!error_.empty()) return false;  // sticky, like every source
  SyncInner();
  ScopedSpan scan(trace_, "scan", "stream", parent_span_);
  const Clock::time_point start = Clock::now();
  bool ok = false;
  if (inner_->SupportsBatchScan()) {
    ok = inner_->ScanBatches([&](std::span<const SetView> sets) {
      ScopedSpan batch(trace_, "dispatch", "sched", scan.id());
      const Clock::time_point batch_start = Clock::now();
      visit(sets);
      counters_.dispatch_s += SecondsSince(batch_start);
      ++counters_.batches;
      counters_.sets += sets.size();
      for (const SetView& set : sets) counters_.elements += set.size();
    });
  } else {
    ok = inner_->Scan([&](const SetView& set) {
      ++counters_.sets;
      counters_.elements += set.size();
      visit(std::span<const SetView>(&set, 1));
    });
  }
  counters_.scan_s += SecondsSince(start);
  ++counters_.scans;
  if (ok) {
    counters_.bytes += bytes_per_scan_;
  } else {
    error_ = inner_->error();
  }
  return ok;
}

}  // namespace perfbench
