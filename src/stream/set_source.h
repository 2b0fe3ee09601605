// Pluggable stream backends.
//
// The paper's model keeps F in a read-only repository that is scanned
// sequentially. `SetSource` abstracts where that repository lives:
// in-memory CSR (the default, fastest for experiments), a text file
// re-parsed on every pass (FileSetSource), or a mapped binary file
// (stream/mmap_set_source.h) — laptop analogues of "the data does not
// fit in memory".
//
// Every source implements one scan, ScanBatches: a pass delivered as
// batches of `SetView`s — borrowed (id, element-span) pairs over the CSR
// itself or over a reused SetBatch arena — in set-id order.

#ifndef STREAMCOVER_STREAM_SET_SOURCE_H_
#define STREAMCOVER_STREAM_SET_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "setsystem/set_system.h"
#include "setsystem/set_view.h"
#include "util/cancel_token.h"

namespace streamcover {

/// Callback invoked once per set (SetSource::Scan). The view borrows the
/// source's storage and is valid only for the duration of the call.
using SetVisitor = std::function<void(const SetView&)>;

/// Callback invoked once per contiguous batch of sets
/// (SetSource::ScanBatches). Views borrow the source's storage and are
/// valid only for the duration of the call.
using SetBatchVisitor = std::function<void(std::span<const SetView>)>;

/// Batch bounds of the in-memory and text sources (the binary decoder's
/// batches are its decode chunks): a batch closes after the set that
/// brings it to either bound. PassScheduler wakes its resident workers
/// once per batch (one ParallelFor over the live consumers), so that is
/// about once per scan at laptop scale.
inline constexpr size_t kBatchMaxSets = size_t{1} << 16;
inline constexpr size_t kBatchMaxWords = size_t{1} << 20;

/// True once a batch of `sets` sets and `words` element words is full.
inline bool BatchFull(size_t sets, size_t words) {
  return sets >= kBatchMaxSets || words >= kBatchMaxWords;
}

/// Sets between the binary decoder's cancellation polls inside a batch:
/// a deadline lands within microseconds, the clock reads stay cheap.
inline constexpr uint32_t kCancelStride = 256;

/// Consecutive sets in columnar form plus their views; the text parser
/// and the decoder's ring slots fill one, reusing its capacity.
struct SetBatch {
  uint32_t first_set = 0;
  std::vector<uint32_t> elems;
  std::vector<size_t> offsets{0};  ///< set i is [offsets[i], offsets[i+1])
  std::vector<SetView> views;      ///< built by MakeViews

  /// Empties the batch; the next set appended gets id `first`.
  void Reset(uint32_t first) {
    first_set = first;
    elems.clear();
    offsets.assign(1, 0);
  }
  /// Ends the current set at the current end of `elems`.
  void EndSet() { offsets.push_back(elems.size()); }
  size_t num_sets() const { return offsets.size() - 1; }

  /// Builds the views once `elems` stops growing (no dangling spans).
  std::span<const SetView> MakeViews();
};

/// A sequentially scannable repository of sets.
class SetSource {
 public:
  virtual ~SetSource() = default;

  virtual uint32_t num_elements() const = 0;
  virtual uint32_t num_sets() const = 0;

  /// An upper bound on the size of every set a scan can deliver:
  /// metadata, never a result. iterSetCover reads it only to prove that
  /// guesses coincide (core/iter_set_cover.h); a loose bound costs that
  /// proof, never a cover. Sources must never deliver a set above it.
  /// The default, num_elements(), holds for any source; in memory it is
  /// the longest row, a binary file derives it from its offsets footer,
  /// and the text source keeps the default.
  virtual uint32_t max_set_size() const { return num_elements(); }

  /// The one scan: a full sequential pass as contiguous batches in
  /// set-id order, polling the cancel token once per batch. Returns
  /// false if the repository failed mid-scan (file truncated or
  /// corrupted underneath us) or the token fired: no set of the failing
  /// batch was delivered, error() says why, and every later scan fails
  /// at once with the same error — a value, never an SC_CHECK abort.
  virtual bool ScanBatches(const SetBatchVisitor& visit) = 0;

  /// ScanBatches fanned out one set per call. Virtual only because
  /// perfbench/ overrides it; make it non-virtual when perfbench/ next
  /// changes.
  virtual bool Scan(const SetVisitor& visit);

  /// Read only by perfbench/; delete it when perfbench/ next changes.
  virtual bool SupportsBatchScan() const { return false; }

  /// An independent scanner over the same repository: fresh cursor,
  /// fresh decode buffer, fresh (empty) sticky-error state, sharing only
  /// the immutable bytes underneath (in-memory CSR, mmap pages, or the
  /// on-disk file). Forks may scan concurrently with the parent and
  /// each other — the serving layer draws one per in-flight request over
  /// a shared resident instance. Returns nullptr with *error set when
  /// the repository cannot be reattached (file vanished) or the source
  /// does not support forking (the default).
  virtual std::unique_ptr<SetSource> Fork(std::string* error) const;

  /// Decode threads of the binary decoder (stream/pipelined_scan.h); 1
  /// decodes inline, and the sets delivered are identical either way.
  /// Other sources ignore it. Per-scanner: forks start back at 1.
  void set_scan_threads(uint32_t threads) {
    scan_threads_ = threads == 0 ? 1 : threads;
  }
  uint32_t scan_threads() const { return scan_threads_; }

  /// Arms cooperative cancellation: every scan polls `cancel` once per
  /// batch (the binary decoder also every kCancelStride sets) and fails
  /// with the sticky error kDeadlineExceededError once it fires — the
  /// same graceful unwind path as a mid-scan repository fault. Pass
  /// nullptr to disarm. The token must outlive the scans it guards; one
  /// cancelled source stays dead (sticky), so per-request forks each
  /// arm their own token.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  /// Empty until a scan fails; sticky afterwards.
  const std::string& error() const { return error_; }

  /// Scans started by this scanner (forks count their own): *physical*
  /// scans under the shared-scan scheduler, not the per-guess total.
  uint64_t scans() const { return scans_; }

 protected:
  /// Every ScanBatches starts here: false on a sticky error, else counts.
  bool BeginScan() {
    if (!error_.empty()) return false;
    ++scans_;
    return true;
  }

  /// True — and latches error_ = kDeadlineExceededError — once the armed
  /// token has fired. Polled before each batch, including the first.
  bool CancelFired() {
    if (cancel_ == nullptr || !cancel_->cancelled()) return false;
    error_ = kDeadlineExceededError;
    return true;
  }

  /// The armed token (nullptr = uncancellable), for scan paths that
  /// poll it off the scanning thread (decode workers).
  const CancelToken* cancel_token() const { return cancel_; }

  std::string error_;

 private:
  const CancelToken* cancel_ = nullptr;
  uint32_t scan_threads_ = 1;
  uint64_t scans_ = 0;
};

/// Scans an in-memory SetSystem (does not take ownership). Batches are
/// views over CSR slices; no element is copied.
class InMemorySetSource : public SetSource {
 public:
  explicit InMemorySetSource(const SetSystem* system);

  uint32_t num_elements() const override;
  uint32_t num_sets() const override;
  /// The longest row, exact (SetSystem::max_set_size).
  uint32_t max_set_size() const override;
  bool ScanBatches(const SetBatchVisitor& visit) override;

  /// Trivially forkable: the CSR is immutable and borrowed.
  std::unique_ptr<SetSource> Fork(std::string* error) const override;

 private:
  const SetSystem* system_;
  std::vector<SetView> views_;  // one batch of views, reused
};

/// Scans a file in the setsystem text format (setsystem/io.h),
/// re-parsing it front to back on every pass into a reused SetBatch.
/// Scans are not concurrency-safe with each other (they share the
/// batch); PassScheduler serializes them by construction.
class FileSetSource : public SetSource {
 public:
  /// Validates the header; returns std::nullopt and fills *error if the
  /// file is missing or malformed.
  static std::optional<FileSetSource> Open(const std::string& path,
                                           std::string* error);

  uint32_t num_elements() const override { return num_elements_; }
  uint32_t num_sets() const override { return num_sets_; }

  /// Re-parses the file front to back. Open only validates the header,
  /// so a file truncated after it — or swapped out underneath us — is
  /// first noticed here; that surfaces as a false return with error()
  /// set, never an abort.
  bool ScanBatches(const SetBatchVisitor& visit) override;

  /// Re-opens the file with a fresh parse batch; scans of the fork and
  /// the parent are independent (each re-reads the file per pass
  /// anyway). Fails if the file has vanished or its header changed.
  std::unique_ptr<SetSource> Fork(std::string* error) const override;

  const std::string& path() const { return path_; }

  /// On-disk size of the repository, for cache byte accounting.
  uint64_t repository_bytes() const { return file_bytes_; }

 private:
  FileSetSource(std::string path, uint32_t n, uint32_t m);

  std::string path_;
  uint32_t num_elements_ = 0;
  uint32_t num_sets_ = 0;
  uint64_t file_bytes_ = 0;
  SetBatch batch_;  // reused across batches and scans
};

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_SET_SOURCE_H_
