// Shared-scan pass execution.
//
// The paper's accounting (Lemma 2.1/2.2) composes the log n guesses of
// iterSetCover *in parallel*: one pass over F is ONE physical scan of
// the repository that feeds every guess at once. `PassScheduler` is that
// composition made executable. Streaming algorithms are expressed as
// `ScanConsumer` state machines (per-guess, per-threshold-level, or one
// per whole algorithm); the scheduler runs rounds, where each round is a
// single `SetStream::ForEachBatch` scan whose batches are dispatched to
// every live consumer. A disk-backed source is therefore read once per
// round, not once per guess per round.
//
// Accounting: the scheduler counts *physical scans* (rounds that touched
// the repository) and attributes one *logical pass* per round to each
// consumer it served — logical passes are what the paper's per-guess
// bounds (Lemma 2.1) are stated in; physical scans are what the disk
// pays. Space stays with the consumers: each owns its SpaceTracker, so
// the parallel-composition space sum (Lemma 2.2's log n factor) is the
// sum of consumer peaks.
//
// Dispatch: the scheduler owns one resident WorkerPool
// (util/worker_pool.h) of min(`threads`, live consumers) threads,
// started on the first round with two live consumers (rebuilt only if a
// later round has more) and joined in its destructor; a solo consumer or
// `threads` = 1 starts none. Every batch is one ParallelFor over the
// live consumers: the calling thread and each idle worker claim the
// next unserved consumer and hand it the whole batch in stream order,
// so results are bit-identical at every thread count and consumers need
// no locks as long as OnSet() touches only their own state. After the
// scan, the live consumers' OnPassEnd() — the paper's per-guess offline
// solves between passes — is a second ParallelFor on the same pool,
// each consumer claimed by exactly one thread; a pass end may fan its
// own work back out (LazyGreedy builds its index over row ranges), and
// idle workers help the newest loop. One live consumer, or one thread,
// runs inline. Everything between rounds (driver logic, winner
// selection) runs on the calling thread after the loop returns.
//
// Filtered scans: before each round every live consumer declares, as a
// ScanFilter (stream/set_source.h), the sets its OnSet can act on in
// the coming pass. The round's scan carries their union — the smallest
// `min_size` and the OR of the id masks, kept in one scheduler-owned
// bitset — or no filter at all when some live consumer wants every
// set. A filtered scan may deliver other sets too, and empty batches;
// an empty batch is not dispatched. Each consumer's OnSet is a no-op on
// every set its own filter leaves out, so every consumer sees the same
// state transitions in stream order, and every round is still one
// physical scan and one logical pass per live consumer.

#ifndef STREAMCOVER_STREAM_PASS_SCHEDULER_H_
#define STREAMCOVER_STREAM_PASS_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "stream/set_source.h"
#include "stream/set_stream.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"
#include "util/worker_pool.h"

namespace streamcover {

/// A streaming algorithm (or one parallel branch of one) expressed as a
/// per-set state machine, drivable by PassScheduler.
class ScanConsumer {
 public:
  virtual ~ScanConsumer() = default;

  /// One set of the current pass, in stream order. The view is valid
  /// only for the duration of the call (it may point into a transient
  /// scan batch). May run on a worker thread: implementations must touch
  /// only their own state.
  virtual void OnSet(const SetView& set) = 0;

  /// The current pass finished. This is where inter-pass work (offline
  /// solves, sampling, phase advance) belongs. May run on a worker
  /// thread, concurrently with other consumers' OnPassEnd: like OnSet,
  /// it must touch only the consumer's own state (shared inputs such as
  /// an OfflineSolver are read-only).
  virtual void OnPassEnd() = 0;

  /// True once the consumer needs no further passes. A done consumer is
  /// never served again.
  virtual bool done() const = 0;

  /// The sets the coming pass must deliver to this consumer, asked
  /// before each round. The contract: OnSet on any set the filter does
  /// not name is a no-op. The default, {}, names every set. The filter
  /// (and its id mask) must stay unchanged until the round's scan ends.
  virtual ScanFilter needs() const { return {}; }
};

/// Executes rounds: one physical scan each, multiplexed over every live
/// registered consumer. Non-owning; consumers must outlive the
/// scheduler or at least its last RunRound.
class PassScheduler {
 public:
  /// `threads` <= 1 runs everything inline on the calling thread;
  /// larger values let a round run on min(`threads`, live consumers)
  /// threads, the calling one included: the resident workers start on
  /// the first round that has two live consumers, and every batch and
  /// every round's OnPassEnd calls then share them. Constructing a
  /// scheduler starts no thread. The KernelPolicy parameter is ignored,
  /// kept only because perfbench/ compiles against it (ROADMAP item 3).
  explicit PassScheduler(SetStream& stream, uint32_t threads = 1,
                         KernelPolicy = KernelPolicy::kWord);

  /// Registers a consumer and returns its slot (index for passes()).
  size_t Register(ScanConsumer* consumer);

  /// Detaches the consumer in `slot` (its pass count stays readable).
  /// Drivers call this before their consumers go out of scope so a
  /// longer-lived scheduler never touches a dangling pointer.
  void Retire(size_t slot);

  /// True iff any registered consumer still wants passes.
  bool AnyLive() const;

  /// Runs one round: a single physical scan served to every live
  /// consumer, then OnPassEnd on each, spread over the pool (the
  /// calling thread included) and finished before return;
  /// the order in which consumers' pass-ends run is unspecified. Returns
  /// the number of consumers served; 0 means either no live consumers
  /// (no scan performed) or a stream failure mid-scan — distinguish via
  /// stream_failed() / stream().error(). After a failure the scheduler
  /// is dead: the round's partial pass is not attributed, OnPassEnd is
  /// not called, and every later RunRound returns 0 immediately.
  size_t RunRound();

  /// True once a scan failed underneath a round (see SetSource::Scan).
  bool stream_failed() const { return stream_failed_; }

  /// Rounds until every consumer is done. Returns the number of physical
  /// scans this call performed.
  uint64_t RunToCompletion();

  /// Pass/scan attribution of one DriveToCompletion window.
  struct SoloRun {
    uint64_t logical_passes = 0;   ///< passes served to the consumer
    uint64_t physical_scans = 0;   ///< scans performed during the window
  };

  /// The solo-driver pattern shared by the single-consumer solver entry
  /// points: registers `consumer`, runs rounds until IT is done (other
  /// live consumers ride the same scans but never extend the window or
  /// the attribution), then retires its slot.
  SoloRun DriveToCompletion(ScanConsumer& consumer);

  /// Physical scans of the repository performed so far.
  uint64_t physical_scans() const { return physical_scans_; }

  /// Logical passes attributed to the consumer in `slot` — the count its
  /// per-guess bounds (Lemma 2.1) are measured in.
  uint64_t passes(size_t slot) const;

  /// Max / sum of logical passes over all consumers. The sum is what a
  /// sequential one-consumer-at-a-time implementation would have
  /// scanned ("sequential_scans"); the max equals physical_scans for
  /// consumers that start together and run until done.
  uint64_t max_passes() const;
  uint64_t total_passes() const;

  uint32_t threads() const { return threads_; }
  SetStream& stream() { return *stream_; }

 private:
  struct Slot {
    ScanConsumer* consumer = nullptr;
    uint64_t passes = 0;
  };

  /// Hands every set of one batch to each of `live`, in stream order,
  /// each consumer on the pool thread that claims it. Views must stay
  /// valid for the call.
  void DispatchBatch(std::span<const SetView> views,
                     const std::vector<ScanConsumer*>& live);

  /// Calls OnPassEnd once on each of `live`, each consumer on the pool
  /// thread that claims it.
  void RunPassEnds(const std::vector<ScanConsumer*>& live);

  /// The union of `live`'s filters, its ids in union_ids_; nullptr when
  /// some consumer wants every set.
  const ScanFilter* UnionFilter(const std::vector<ScanConsumer*>& live);

  SetStream* stream_;
  uint32_t threads_;
  /// Always engaged; one thread (no workers) until a round can use more.
  std::optional<WorkerPool> pool_;
  std::vector<Slot> slots_;
  ScanFilter union_filter_;
  DynamicBitset union_ids_;  ///< OR of the live consumers' id masks
  uint64_t physical_scans_ = 0;
  bool stream_failed_ = false;
};

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_PASS_SCHEDULER_H_
