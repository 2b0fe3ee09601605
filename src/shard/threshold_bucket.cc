#include "shard/threshold_bucket.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace streamcover {

ThresholdBucketEngine::ThresholdBucketEngine(
    uint32_t num_elements, const StreamPartitioner* partitioner,
    uint32_t shard)
    : num_elements_(num_elements),
      partitioner_(partitioner),
      shard_(shard),
      skip_union_(num_elements, true) {
  if (partitioner_ != nullptr) SC_CHECK_LT(shard, partitioner_->shards());
  // The distinct values of ceil((1+eps)^b) in [1, n]: the dense 1,2,3...
  // prefix collapses duplicates, the tail grows geometrically.
  const uint64_t n = std::max<uint32_t>(num_elements, 1);
  for (uint64_t tau = 1;;) {
    Bucket bucket;
    bucket.tau = tau;
    bucket.remaining = num_elements;
    bucket.uncovered = LiveMask(num_elements, true);
    buckets_.push_back(std::move(bucket));
    if (tau >= n) break;
    const uint64_t next = static_cast<uint64_t>(
        std::ceil(static_cast<double>(tau) * (1.0 + kLadderEpsilon)));
    tau = std::min(std::max(next, tau + 1), n);
  }
  live_buckets_ = buckets_.size();
  tracker_.Charge((buckets_.size() + 1) * skip_union_.WordCount());
}

void ThresholdBucketEngine::RefreshSkipMask() {
  cleared_since_refresh_ = 0;
  if (live_buckets_ == 0) {
    skip_active_ = false;
    return;
  }
  std::span<uint64_t> out = skip_union_.bits().MutableWords();
  std::fill(out.begin(), out.end(), 0);
  for (const Bucket& bucket : buckets_) {
    if (!bucket.live) continue;
    std::span<const uint64_t> in = bucket.uncovered.bits().Words();
    for (size_t w = 0; w < out.size(); ++w) out[w] |= in[w];
  }
  // The pre-test costs ~one ladder rung per set; only worth it once the
  // union is sparse enough that most sets miss it entirely.
  skip_active_ = skip_union_.Count() * 4 < num_elements_;
}

void ThresholdBucketEngine::OnSet(const SetView& set) {
  if (partitioner_ != nullptr &&
      partitioner_->ShardOf(set.id) != shard_) {
    return;
  }
  ++counters_.sets_seen;
  if (live_buckets_ == 0) return;
  // Coverage-progress refresh: the union only drifts when inserts clear
  // residual bits, so refresh once enough have accumulated.
  if (cleared_since_refresh_ * kRefreshProgressRatio >= num_elements_ &&
      cleared_since_refresh_ > 0) {
    RefreshSkipMask();
  }
  if (skip_active_) {
    counters_.work_items += set.size();
    if (!Intersects(set, skip_union_)) return;
  }
  bool stored = false;
  bool any_died = false;
  for (Bucket& bucket : buckets_) {
    // A gain is at most |S| and the ladder ascends in tau, so neither
    // this bucket nor any after it can take the set.
    if (bucket.tau > set.size()) break;
    if (!bucket.live) continue;
    counters_.work_items += set.size();
    const uint64_t gain = CountUncovered(set, bucket.uncovered);
    if (gain < bucket.tau) continue;
    MarkCovered(set, bucket.uncovered);
    bucket.remaining -= gain;
    cleared_since_refresh_ += gain;
    ++counters_.inserts;
    if (!stored) {
      stored = true;
      ++counters_.candidates;
      ids_.push_back(set.id);
      elems_.insert(elems_.end(), set.begin(), set.end());
      offsets_.push_back(elems_.size());
      tracker_.Charge(set.size() + 1);
    }
    if (bucket.remaining < bucket.tau) {
      bucket.live = false;
      --live_buckets_;
      any_died = true;
    }
  }
  if (any_died) RefreshSkipMask();
}

}  // namespace streamcover
