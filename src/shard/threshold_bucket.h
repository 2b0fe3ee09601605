// ThresholdBucketEngine — one shard's single-pass candidate collector.
//
// The GreeDIMM/RandGreeDI local step keeps a geometric ladder of gain
// buckets: bucket b accepts a set while the set still covers at least
// tau_b = ceil((1+eps)^b) new elements *of that bucket's own residual*.
// Every accepted set is a candidate for the global merge. The ladder is
// the streaming insurance policy: the tau=1 bucket guarantees the
// candidate union covers everything the substream covers (a set whose
// elements are all covered by earlier candidates adds nothing to any
// merge), while the high-tau buckets keep the high-gain picks a greedy
// merge wants even after the low buckets saturate.
//
// Space is bounded without a tuning knob: an insert into bucket b clears
// at least tau_b residual bits, so bucket b accepts at most n / tau_b
// sets and the whole ladder at most n * sum(1/tau_b) = O(n log n / eps)
// inserts; each candidate's elements are stored ONCE (first accepting
// bucket) in a CSR buffer, so the merge never rescans the repository.
//
// The engine is a ScanConsumer: S of them ride the ONE physical scan of
// a PassScheduler round, each hash-filtering the stream down to its own
// substream (shard/stream_partitioner.h) — with `threads` = S the
// scheduler fans the per-shard work out across its worker pool. One
// pass, then done. Output (candidates, counters) is a pure function of
// the substream, so it is identical across set sources, thread counts,
// and scheduler batch boundaries.

#ifndef STREAMCOVER_SHARD_THRESHOLD_BUCKET_H_
#define STREAMCOVER_SHARD_THRESHOLD_BUCKET_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "shard/stream_partitioner.h"
#include "stream/pass_scheduler.h"
#include "stream/space_tracker.h"
#include "util/cover_kernels.h"

namespace streamcover {

/// Counters the bench and the serve stats endpoint surface per shard.
struct ShardEngineCounters {
  uint64_t sets_seen = 0;   ///< sets of this shard's substream
  uint64_t inserts = 0;     ///< bucket acceptances (a set may enter many)
  uint64_t candidates = 0;  ///< unique candidate sets stored
  /// Elements pushed through the bucket kernels — the shard-local work
  /// a parallel scheduler distributes; the bench's partition-scaling
  /// column is total/max of this across shards.
  uint64_t work_items = 0;
};

class ThresholdBucketEngine final : public ScanConsumer {
 public:
  /// `partitioner` == nullptr accepts the whole stream (the unsharded
  /// `greedi` reference); otherwise only sets with ShardOf(id) ==
  /// `shard`. The partitioner must outlive the engine.
  ThresholdBucketEngine(uint32_t num_elements,
                        const StreamPartitioner* partitioner, uint32_t shard);

  /// The ladder's eps, fixed: a smaller one means more buckets, better
  /// candidates and more per-set work.
  static constexpr double kLadderEpsilon = 0.25;

  void OnSet(const SetView& set) override;
  void OnPassEnd() override { pass_done_ = true; }
  bool done() const override { return pass_done_; }

  uint32_t shard() const { return shard_; }
  const ShardEngineCounters& counters() const { return counters_; }
  uint64_t space_words() const { return tracker_.peak_words(); }

  /// Stored candidates, in substream order.
  size_t candidate_count() const { return ids_.size(); }
  uint32_t candidate_id(size_t i) const { return ids_[i]; }
  std::span<const uint32_t> candidate_elems(size_t i) const {
    return std::span<const uint32_t>(elems_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

 private:
  struct Bucket {
    uint64_t tau = 1;       ///< minimal residual gain to accept
    uint64_t remaining = 0;  ///< residual bits still set in `uncovered`
    bool live = true;        ///< false once remaining < tau (forever)
    LiveMask uncovered;
  };

  /// Rebuilds `skip_union_` = OR of the live buckets' residuals and
  /// re-decides whether the pre-test pays for itself.
  void RefreshSkipMask();

  const uint32_t num_elements_;
  const StreamPartitioner* partitioner_;
  const uint32_t shard_;

  std::vector<Bucket> buckets_;  // ascending tau
  size_t live_buckets_ = 0;
  bool pass_done_ = false;

  // A set with no element in any live residual is a no-op for every
  // bucket; `skip_union_` is a (possibly stale, therefore superset)
  // union of the live residuals and one Intersects against it replaces
  // the whole ladder walk in the saturated tail of the substream. Only
  // consulted once it is sparse enough that the pre-test usually wins
  // (skip_active_); refreshed on bucket death and on coverage progress:
  // once the inserts since the last refresh cleared >= n /
  // kRefreshProgressRatio residual bits, the stale superset has drifted
  // enough to be worth recomputing. (A blind every-K-sets countdown
  // refreshes identical unions through no-progress stretches and lets
  // the mask go stale through bursts; progress is the only thing that
  // changes the union.) Both triggers are pure functions of the
  // substream, so counters stay invariant across backends and thread
  // counts.
  static constexpr uint64_t kRefreshProgressRatio = 8;
  LiveMask skip_union_;
  bool skip_active_ = false;
  uint64_t cleared_since_refresh_ = 0;

  // Candidate CSR: ids_[i] owns elems_[offsets_[i], offsets_[i+1]).
  std::vector<uint32_t> ids_;
  std::vector<size_t> offsets_{0};
  std::vector<uint32_t> elems_;

  ShardEngineCounters counters_;
  SpaceTracker tracker_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_SHARD_THRESHOLD_BUCKET_H_
