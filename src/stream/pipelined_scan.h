// The chunk decoder behind every binary mmap scan, and the format's one
// body decoder: a load into memory (LoadAnySetSystemFromFile) scans
// through it too.
//
// The set range is split into fixed-work chunks via the SCOVRB01 offsets
// footer (~256KB of encoded body each, so set-size skew cannot starve a
// worker); each chunk decodes into a SetBatch and reaches the scanning
// thread strictly **in set-id order**, one batch per chunk. One decode
// thread decodes inline and starts no helper. More decode on a worker
// pool into a bounded ring, overlapping decode of chunks k+1..k+D with
// dispatch of chunk k, with an madvise(MADV_WILLNEED) window ahead of
// the decode frontier. Either way the sets delivered are identical; a
// corrupt varint fails the scan with "path: corrupt set S: msg" for the
// first corrupt set in stream order and delivers no set of its chunk;
// and the CancelToken is polled at every chunk start and every
// kCancelStride sets inside it.
//
// The handoff between the decode pool and the consumer (the thread that
// called Run) costs one wake per event that unblocks someone. Both
// sides sleep under one mutex and count themselves as sleepers first:
// - A decoder sleeps on claim_cv_ while the ring is full (chunk
//   next_claim_ must wait for chunk next_claim_ - depth to be
//   consumed). The consumer's release of a slot makes exactly one more
//   chunk claimable, so it wakes one decoder (notify_one), and only if
//   one is asleep.
// - The consumer sleeps on consume_cv_ for the one chunk it delivers
//   next and records which. A decoder that finishes (or fails) a chunk
//   wakes the consumer only if that is the chunk it waits for; chunks
//   that finish out of order wake nobody, since the consumer checks
//   their state before it sleeps again.
// - An abort and the end of the scan wake every decoder (notify_all),
//   so each sees the stop and exits before the join.
//
// One decode loop reads every set: its size varint, then one batch
// growth by that size, then the elements written through a pointer. An
// element varint of at most 3 bytes (every delta below 2^21) that ends
// inside the set's slot is decoded from one unaligned 8-byte load; the
// load stays in the file because at least 16 bytes follow every body
// byte (binary_io.h's layout). Every other varint goes through
// binfmt::DecodeVarint, so a malformed varint always fails there.
//
// A scan may carry a ScanFilter (stream/set_source.h). The scanner keeps
// one flag per chunk, set once that chunk has decoded with no error;
// the filter applies only inside such clean chunks. There the loop
// still reads each set's size varint and checks it against the footer
// bound, and a set the filter does not name (smaller than its
// `min_size` and not in its `ids`) is skipped: the cursor jumps to the
// set's slot end without decoding the elements. Every other set is
// decoded as above, and its id is recorded in the batch. So the first
// scan of a file decodes and validates every body whatever the filter,
// and a corrupt file fails exactly as it would unfiltered. Cancel polls
// keep their kCancelStride cadence over skipped sets too.
//
// A clean chunk can also be skipped whole: when the filter's `min_size`
// exceeds the footer bound (BinaryLayout::max_set_size, so no set can
// clear it) and its `ids` mark no set of the chunk
// (ScanFilter::NamesNoneIn, one bitset scan over the chunk's id range),
// the decoder polls the cancel token as at every chunk start and
// delivers an empty batch without reading a byte of the chunk. A
// threshold pass whose size floor exceeds the footer bound then costs
// one poll per chunk, and iterSetCover's second pass (an id mask of its
// picks) reads only the chunks that hold a pick. The scan still counts
// as a physical scan.

#ifndef STREAMCOVER_STREAM_PIPELINED_SCAN_H_
#define STREAMCOVER_STREAM_PIPELINED_SCAN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "setsystem/binary_io.h"
#include "stream/set_source.h"
#include "util/cancel_token.h"

namespace streamcover {

/// Target encoded body bytes per decode chunk. Small enough that a
/// handful of in-flight chunks fit in L2/L3 and the consumer never
/// waits long for chunk 0; large enough that per-chunk handoff costs
/// (one lock round-trip, one batch dispatch) vanish against the
/// ~100k+ varints decoded inside.
inline constexpr uint64_t kDefaultScanChunkBytes = 256 * 1024;

/// One scan = one PipelinedScanner::Run. The scanner borrows the
/// mapping and the chunk plan; per-run state (ring slots, workers) is
/// owned here and reset by each Run, so a source can run scans back to
/// back while reusing the plan and the slots' capacity.
class PipelinedScanner {
 public:
  /// `data` is the full mapped file; `chunks` comes from
  /// binfmt::BuildChunkPlan over the same layout. Both must outlive
  /// the scanner. `decode_threads` >= 1; 1 decodes inline.
  PipelinedScanner(const uint8_t* data, uint64_t num_elements,
                   const binfmt::BinaryLayout& layout,
                   std::span<const binfmt::ScanChunk> chunks,
                   uint32_t decode_threads);

  /// Runs one full scan, delivering each chunk to `visit` in order from
  /// the calling thread; views are valid only for the duration of the
  /// call. Returns false — with the diagnostic in *error — on a corrupt
  /// body or a fired cancel token (*error == kDeadlineExceededError
  /// then). Workers are always joined before returning. A `filter`
  /// skips the sets it does not name inside chunks an earlier run of
  /// this scanner decoded cleanly; such a chunk's batch may be empty.
  bool Run(const std::string& path, const SetBatchVisitor& visit,
           const CancelToken* cancel, std::string* error,
           const ScanFilter* filter = nullptr);

 private:
  /// One ring slot: the decoded batch for one chunk. Storage is
  /// per-slot (not shared) so decode of chunk k+1 never invalidates
  /// views the consumer is still dispatching for chunk k.
  struct Slot {
    enum class State { kEmpty, kDecoding, kReady, kFailed };
    State state = State::kEmpty;
    uint64_t chunk = 0;  // which chunk currently occupies it
    SetBatch batch;
    std::string error;   // set iff kFailed
  };

  /// Decodes chunk `c` into `batch` and builds its views, under
  /// `filter` if the chunk is clean, and marks it clean on success.
  /// Returns false with *error set on corruption, a fired cancel, or an
  /// observed abort.
  bool DecodeChunk(uint64_t c, SetBatch& batch, const ScanFilter* filter,
                   const std::string& path, const CancelToken* cancel,
                   std::string* error);

  /// Advises the kernel of upcoming chunk bytes up to
  /// `claimed + kReadaheadChunks`. Called right after claiming a chunk;
  /// frontier bookkeeping is internal.
  void Readahead(uint64_t claimed);

  /// The worker-pool run behind Run when decode_threads_ > 1.
  bool RunPool(const std::string& path, const SetBatchVisitor& visit,
               const CancelToken* cancel, std::string* error,
               const ScanFilter* filter);

  const uint8_t* data_;
  uint64_t num_elements_;
  const binfmt::BinaryLayout* layout_;
  std::span<const binfmt::ScanChunk> chunks_;
  uint32_t decode_threads_;
  uint32_t depth_;
  /// clean_[c] != 0 once chunk c decoded with no error. One byte per
  /// chunk, not vector<bool>: decode workers write different chunks'
  /// flags concurrently. A run reads a flag only on the thread that
  /// decodes that chunk, after the earlier run that set it was joined.
  std::vector<uint8_t> clean_;

  /// consumer_waits_for_ while the consumer is awake.
  static constexpr uint64_t kNoChunk = UINT64_MAX;

  // Per-run pipeline state, guarded by mu_ except where noted.
  std::mutex mu_;
  std::condition_variable claim_cv_;    // workers wait for ring space
  std::condition_variable consume_cv_;  // consumer waits for its chunk
  std::vector<Slot> slots_;
  uint64_t next_claim_ = 0;    // next chunk index a worker takes
  uint64_t next_consume_ = 0;  // next chunk index the consumer needs
  uint64_t advise_frontier_ = 0;  // chunks already madvise'd
  uint32_t claim_sleepers_ = 0;   // workers asleep on claim_cv_
  /// The chunk the consumer sleeps on consume_cv_ for, else kNoChunk.
  uint64_t consumer_waits_for_ = kNoChunk;
  /// Consumer saw a failure; workers bail out. Atomic because decode
  /// loops poll it lock-free at kCancelStride granularity.
  std::atomic<bool> abort_{false};
};

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_PIPELINED_SCAN_H_
