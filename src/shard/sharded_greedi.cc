#include "shard/sharded_greedi.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "shard/merge_stage.h"
#include "shard/stream_partitioner.h"
#include "shard/threshold_bucket.h"
#include "stream/space_tracker.h"
#include "util/timer.h"

namespace streamcover {
namespace {

/// Shared body of both registry entries. `partitioned` selects between
/// S hash-filtered engines (sharded_greedi) and one whole-stream engine
/// (greedi); everything after the scan is identical.
RunResult RunShardFamily(RunContext& ctx, bool partitioned) {
  RunResult result;
  const uint32_t shards = partitioned ? ctx.options.shards : 1;
  if (shards == 0) {
    result.error = "sharded_greedi requires shards >= 1";
    return result;
  }

  SetStream& stream = ctx.scheduler.stream();
  const uint32_t n = stream.num_elements();
  const uint32_t m = stream.num_sets();

  std::optional<StreamPartitioner> partitioner;
  if (partitioned) partitioner.emplace(ctx.options.seed, shards);

  std::vector<std::unique_ptr<ThresholdBucketEngine>> engines;
  engines.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    engines.push_back(std::make_unique<ThresholdBucketEngine>(
        n, partitioner ? &*partitioner : nullptr, s,
        ThresholdBucketOptions{}));
  }

  std::vector<size_t> slots;
  slots.reserve(engines.size());
  for (const auto& engine : engines) {
    slots.push_back(ctx.scheduler.Register(engine.get()));
  }
  const uint64_t scans_before = ctx.scheduler.physical_scans();
  while (ctx.scheduler.AnyLive()) {
    if (ctx.scheduler.RunRound() == 0) break;
  }
  uint64_t max_passes = 0;
  uint64_t total_passes = 0;
  for (size_t slot : slots) {
    const uint64_t p = ctx.scheduler.passes(slot);
    if (p > max_passes) max_passes = p;
    total_passes += p;
  }
  for (size_t slot : slots) ctx.scheduler.Retire(slot);
  result.passes = max_passes;
  result.sequential_scans = total_passes;
  result.physical_scans = ctx.scheduler.physical_scans() - scans_before;

  if (ctx.scheduler.stream_failed()) {
    // Dispatch surfaces the stream's sticky error; nothing to merge.
    return result;
  }

  SpaceTracker tracker;
  for (const auto& engine : engines) {
    result.shard_stats.push_back(ShardStat{
        engine->shard(), engine->counters().sets_seen,
        engine->counters().candidates, engine->counters().inserts,
        engine->counters().work_items});
    tracker.AddParallelPeak(engine->space_words());
  }

  WallTimer merge_timer;
  MergeStageOptions merge_options;
  merge_options.coverage_fraction = ctx.options.coverage_fraction;
  MergeStage merge(n, m, merge_options);
  for (const auto& engine : engines) {
    for (size_t i = 0; i < engine->candidate_count(); ++i) {
      merge.AddCandidate(engine->candidate_id(i), engine->candidate_elems(i));
    }
  }
  MergeOutcome outcome = merge.Merge();
  result.merge_stats.candidates = merge.candidates();
  result.merge_stats.duplicates_dropped = merge.duplicates_dropped();
  result.merge_stats.picked = outcome.cover.set_ids.size();
  result.merge_stats.duration_ms = merge_timer.ElapsedMillis();
  result.gain_updates = merge.counters().gain_updates;
  result.sets_touched = merge.counters().sets_touched;
  tracker.AddParallelPeak(merge.space_words());

  result.cover = std::move(outcome.cover);
  result.success = outcome.success;
  result.space_words = tracker.peak_words();
  return result;
}

}  // namespace

RunResult RunShardedGreedi(RunContext& ctx) {
  return RunShardFamily(ctx, /*partitioned=*/true);
}

RunResult RunGreediReference(RunContext& ctx) {
  return RunShardFamily(ctx, /*partitioned=*/false);
}

}  // namespace streamcover
