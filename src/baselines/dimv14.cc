#include "baselines/dimv14.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "offline/greedy.h"
#include "stream/sampling.h"
#include "util/check.h"
#include "util/mathutil.h"

namespace streamcover {

Dimv14Consumer::Dimv14Consumer(uint32_t n, uint32_t m,
                               const Dimv14Options& options,
                               const OfflineSolver& offline)
    : n_(n), m_(m), options_(&options), offline_(&offline),
      rng_(options.seed), reindex_(n, UINT32_MAX) {
  // Base case: |V| such that m * |V| = O~(m n^delta) — i.e.
  // |V| <= c * n^delta * log m * log n (no k factor; see header).
  base_size_ = static_cast<uint64_t>(std::ceil(
      options.sample_constant *
      PowDouble(static_cast<double>(n), options.delta) * Log2Clamped(m) *
      Log2Clamped(n)));
  base_size_ = std::max<uint64_t>(base_size_, 1);

  Frame root;
  root.targets = LiveMask(n, true);
  tracker_.Charge(root.targets.WordCount());
  stack_.push_back(std::move(root));
  Advance();
}

void Dimv14Consumer::PrepareBasePass(Frame& frame) {
  // The targets are ascending, so the map is increasing and every
  // reindexed projection stays sorted.
  base_target_elems_ = frame.targets.ToVector();
  for (uint32_t i = 0; i < base_target_elems_.size(); ++i) {
    reindex_[base_target_elems_[i]] = i;
  }
  tracker_.Charge(2 * base_target_elems_.size());  // ids + reindex
  sub_builder_.emplace(static_cast<uint32_t>(base_target_elems_.size()));
  original_ids_.clear();
  base_targets_ = &frame.targets;
  stored_words_ = 0;
}

void Dimv14Consumer::Advance() {
  while (true) {
    if (failed_ || stack_.empty()) {
      stack_.clear();
      phase_ = Phase::kDone;
      return;
    }
    Frame& frame = stack_.back();
    switch (frame.stage) {
      case Stage::kEnter: {
        if (frame.depth > options_->max_depth) {
          failed_ = true;
          break;
        }
        const uint64_t remaining = frame.targets.Count();
        if (remaining == 0) {
          stack_.pop_back();
          break;
        }
        if (remaining <= base_size_) {
          // Base case: one pass storing the projections of ALL sets
          // onto the target (no Size Test — this is the space-relevant
          // difference from iterSetCover), then one offline solve.
          PrepareBasePass(frame);
          phase_ = Phase::kBasePass;
          return;
        }
        // Recursive case: sample |V| / n^delta elements (at least
        // base_size). Child 1 covers the sample; the update pass then
        // removes everything child 1's picks cover; child 2 (a tail
        // call on this frame) handles the residual.
        const double shrink =
            PowDouble(static_cast<double>(n_), options_->delta);
        uint64_t sample_size = std::max<uint64_t>(
            base_size_,
            static_cast<uint64_t>(static_cast<double>(remaining) / shrink));
        sample_size = std::min(sample_size, remaining - 1);

        std::vector<uint32_t> sample_elems =
            SampleFromBitset(frame.targets.bits(), sample_size, rng_);
        LiveMask sample_mask(frame.targets.size());
        for (uint32_t e : sample_elems) sample_mask.Set(e);
        tracker_.Charge(sample_mask.WordCount());

        frame.sol_before = sol_.set_ids.size();
        frame.child_mask_words = sample_mask.WordCount();
        frame.stage = Stage::kAfterChild1;
        Frame child;
        child.targets = std::move(sample_mask);
        child.depth = frame.depth + 1;
        stack_.push_back(std::move(child));  // invalidates `frame`
        break;
      }
      case Stage::kAfterChild1: {
        tracker_.Release(frame.child_mask_words);
        // One pass: remove from `targets` everything covered by the
        // sets picked by child 1 (they typically cover most of V, not
        // just S).
        picked_ = DynamicBitset(m_);
        for (size_t i = frame.sol_before; i < sol_.set_ids.size(); ++i) {
          picked_.Set(sol_.set_ids[i]);
        }
        tracker_.Charge(picked_.WordCount());
        update_targets_ = &frame.targets;
        frame.stage = Stage::kAfterUpdate;
        phase_ = Phase::kUpdatePass;
        return;
      }
      case Stage::kAfterUpdate: {
        // Child 2 is Cover(targets, depth + 1) on the same residual —
        // a tail call realized by re-entering this frame one deeper.
        frame.depth += 1;
        frame.stage = Stage::kEnter;
        break;
      }
    }
  }
}

void Dimv14Consumer::OnSet(const SetView& set) {
  switch (phase_) {
    case Phase::kBasePass: {
      // Masked filter against the frame's residual first; the
      // survivors are all target elements by construction, so each has
      // a reindex entry.
      proj_scratch_.clear();
      FilterInto(set, *base_targets_, proj_scratch_);
      if (proj_scratch_.empty()) return;
      for (uint32_t& e : proj_scratch_) {
        SC_DCHECK(reindex_[e] != UINT32_MAX);
        e = reindex_[e];
      }
      stored_words_ += proj_scratch_.size() + 1;
      tracker_.Charge(proj_scratch_.size() + 1);
      sub_builder_->AddSet(std::span<const uint32_t>(proj_scratch_));
      original_ids_.push_back(set.id);
      return;
    }
    case Phase::kUpdatePass: {
      if (!picked_.Test(set.id)) return;
      MarkCovered(set, *update_targets_);
      return;
    }
    case Phase::kDone:
      return;
  }
}

void Dimv14Consumer::OnPassEnd() {
  switch (phase_) {
    case Phase::kBasePass: {
      SetSystem sub = std::move(*sub_builder_).Build();
      sub_builder_.reset();
      OfflineResult offline_result = offline_->Solve(sub);
      for (uint32_t sub_id : offline_result.cover.set_ids) {
        sol_.set_ids.push_back(original_ids_[sub_id]);
        tracker_.Charge(1);
      }
      tracker_.Release(stored_words_);
      tracker_.Release(2 * base_target_elems_.size());
      for (uint32_t e : base_target_elems_) reindex_[e] = UINT32_MAX;
      // The base case always finishes its frame: covered elements are
      // covered, uncoverable leftovers are dropped — both die with the
      // popped frame's residual bitset.
      base_targets_ = nullptr;
      stack_.pop_back();
      Advance();
      return;
    }
    case Phase::kUpdatePass: {
      tracker_.Release(picked_.WordCount());
      update_targets_ = nullptr;
      Advance();
      return;
    }
    case Phase::kDone:
      return;
  }
}

BaselineResult Dimv14Consumer::TakeResult(uint64_t logical_passes) {
  BaselineResult result;
  sol_.Deduplicate();
  result.cover = std::move(sol_);
  // The base case clears uncoverable elements, so success means
  // "covered all coverable elements".
  result.success = !failed_;
  result.passes = logical_passes;
  result.physical_scans = logical_passes;
  result.space_words = tracker_.peak_words();
  return result;
}

BaselineResult Dimv14Cover(PassScheduler& scheduler,
                           const Dimv14Options& options) {
  SC_CHECK(options.delta > 0.0 && options.delta <= 1.0);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;

  // The DIMV14 scheme's k-guessing only affects sample sizing through
  // the offline solves; the pass structure is guess-independent here, so
  // a single run realizes the bound (k enters base_size only via rho in
  // the offline solver, which is instance- not guess-dependent). We
  // still report parallel-style accounting for comparability.
  Dimv14Consumer consumer(scheduler.stream().num_elements(),
                          scheduler.stream().num_sets(), options, offline);
  PassScheduler::SoloRun run = scheduler.DriveToCompletion(consumer);
  BaselineResult result = consumer.TakeResult(run.logical_passes);
  result.physical_scans = run.physical_scans;
  return result;
}

BaselineResult Dimv14Cover(SetStream& stream, const Dimv14Options& options) {
  PassScheduler scheduler(stream);
  return Dimv14Cover(scheduler, options);
}

}  // namespace streamcover
