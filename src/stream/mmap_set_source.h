// Out-of-core set repository over the binary format.
//
// MmapSetSource maps a binary set-system file (setsystem/binary_io.h)
// read-only and scans it through the chunk decoder
// (stream/pipelined_scan.h), delivering each decoded chunk as one batch
// of the same sorted-unique SetViews every other source dispatches. The
// kernel is advised that scans are sequential (madvise), so repeated
// physical passes over a file larger than RAM stay bandwidth-bound: the
// page cache streams the file instead of thrashing, and no per-pass
// parsing of ASCII numbers happens at all. This is the piece that makes
// the paper's m≈10^7–10^8 regime reachable on a laptop.
//
// Open validates the whole file structure through the offsets footer
// (a truncated or resized file is rejected up front — the failure mode
// the text source can only discover mid-scan), and derives the
// set-size bound (max_set_size) from the same footer. Decode errors
// inside a set body (corrupt varints, a size above that bound,
// out-of-range ids) surface as graceful scan failures per the SetSource
// error contract, never aborts. So does a file changed in place after
// Open: the source keeps the file open, and every scan first checks
// that its device, inode, size and mtime are still the ones Open saw,
// before it touches a page. (A change during a scan is not caught.)

#ifndef STREAMCOVER_STREAM_MMAP_SET_SOURCE_H_
#define STREAMCOVER_STREAM_MMAP_SET_SOURCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "setsystem/binary_io.h"
#include "stream/pipelined_scan.h"
#include "stream/set_source.h"

namespace streamcover {

/// Scans a binary set-system file through a read-only memory mapping.
/// Views passed to the visitor are valid only for the duration of that
/// callback (they point into the decoder's ring slots). One
/// MmapSetSource's scans are not concurrency-safe with each other
/// (PassScheduler serializes them by construction) — but Fork() hands
/// out independent scanners over the *same* mapped pages, which is how
/// the serving layer runs concurrent requests against one resident file
/// without remapping it per request.
class MmapSetSource : public SetSource {
 public:
  /// Maps `path` and validates header + footer structure (magic,
  /// version, dimensions, size consistency, monotone offsets). Returns
  /// std::nullopt and fills *error on any mismatch. The body checksum
  /// is NOT verified here — that would cost a full read of a file this
  /// class exists to stream lazily; a full load checks it
  /// (VerifyChecksum), and body corruption still fails cleanly during a
  /// scan.
  static std::optional<MmapSetSource> Open(const std::string& path,
                                           std::string* error);

  MmapSetSource(MmapSetSource&&) noexcept = default;
  MmapSetSource& operator=(MmapSetSource&&) noexcept = default;
  MmapSetSource(const MmapSetSource&) = delete;
  MmapSetSource& operator=(const MmapSetSource&) = delete;

  uint32_t num_elements() const override { return num_elements_; }
  uint32_t num_sets() const override { return num_sets_; }
  /// The footer's set-size bound, computed once per mapping at Open
  /// (binfmt::BinaryLayout::max_set_size); forks share it.
  uint32_t max_set_size() const override {
    return static_cast<uint32_t>(map_->layout.max_set_size);
  }

  /// One pass of the chunk decoder with scan_threads() decode threads
  /// (1 = inline on the calling thread); one batch per chunk. An armed
  /// scan filter skips unnamed bodies in chunks this scanner already
  /// decoded cleanly (stream/pipelined_scan.h). Fails with the sticky
  /// error "<path>: changed on disk since it was opened" if the file's
  /// identity, size or mtime moved since Open.
  bool ScanBatches(const SetBatchVisitor& visit) override;

  /// Kept for perfbench/ only (see SetSource::SupportsBatchScan).
  bool SupportsBatchScan() const override { return scan_threads() > 1; }

  /// Shares the mapping (one mmap, refcounted) but owns a fresh decoder
  /// and error state, so fork and parent may scan concurrently.
  /// The pages stay mapped until the last fork drops them.
  std::unique_ptr<SetSource> Fork(std::string* error) const override;

  /// Re-folds the body's FNV-1a checksum over the mapping and compares
  /// it with the header's. Returns false with *error set on a mismatch.
  /// Reads every body byte, so only a full load calls it.
  bool VerifyChecksum(std::string* error) const;

  const std::string& path() const { return map_->path; }
  uint64_t nnz() const { return map_->layout.nnz; }

  /// The validated file structure — what the `stats` CLI command walks
  /// to report chunk counts without a second Open.
  const binfmt::BinaryLayout& layout() const { return map_->layout; }

  /// Bytes of the underlying mapping, for cache byte accounting.
  uint64_t repository_bytes() const { return map_->size; }

 private:
  /// The refcounted immutable mapping every fork shares. munmap and
  /// close happen exactly once, when the last scanner over it is
  /// destroyed.
  struct Mapping {
    ~Mapping();
    /// True iff the open file still has the device, inode, size and
    /// mtime recorded at Open.
    bool Unchanged() const;
    std::string path;
    int fd = -1;
    uint64_t dev = 0;
    uint64_t ino = 0;
    int64_t mtime_s = 0;
    int64_t mtime_ns = 0;
    const uint8_t* data = nullptr;
    uint64_t size = 0;
    binfmt::BinaryLayout layout;
    std::vector<binfmt::ScanChunk> chunks;  // the decoder's chunk plan
  };

  explicit MmapSetSource(std::shared_ptr<const Mapping> map);

  /// The per-scanner chunk decoder, built on the first scan and rebuilt
  /// if scan_threads changes; its slot batches persist across passes.
  PipelinedScanner& EnsureScanner();

  std::shared_ptr<const Mapping> map_;
  uint32_t num_elements_ = 0;
  uint32_t num_sets_ = 0;
  std::unique_ptr<PipelinedScanner> scanner_;
  uint32_t scanner_threads_ = 0;
};

/// Opens `path` as whichever source its magic announces: MmapSetSource
/// for the binary format, FileSetSource for text. This is how
/// Instance::FromFile / `solve --from-disk` pick the fast path
/// automatically. Returns nullptr and fills *error on failure.
std::unique_ptr<SetSource> OpenDiskSetSource(const std::string& path,
                                             std::string* error);

/// Loads `path` into memory in whichever format its magic announces:
/// OpenDiskSetSource, then (binary only) the body checksum, then one scan
/// into SetSystem::Builder. So a load decodes and validates exactly as a
/// scan of the same file does. Returns std::nullopt and fills *error on
/// a missing, malformed, truncated or corrupt file.
std::optional<SetSystem> LoadAnySetSystemFromFile(const std::string& path,
                                                  std::string* error);

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_MMAP_SET_SOURCE_H_
