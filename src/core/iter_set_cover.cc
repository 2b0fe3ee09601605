#include "core/iter_set_cover.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/projection_store.h"
#include "offline/greedy.h"
#include "stream/sampling.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/cover_kernels.h"
#include "util/mathutil.h"
#include "util/rng.h"

namespace streamcover {
namespace {

// One guess of the optimal cover size, expressed as a ScanConsumer:
// the 1/delta iterations of Figure 1.3 become a state machine whose
// passes (Size-Test pass, recompute pass, optional final sweep) are fed
// by whatever physical scan the PassScheduler is running. All mutable
// state is owned by the consumer, so any number of guesses can share
// one scan — serially or on worker threads — with bit-identical
// results. That includes the pass-end work the scheduler runs on its
// workers: the offline solve reads only the guess's own sub-instance,
// built in place from its projection arena (no copy, no hash map).
//
// A guess may also lead a class of guesses that provably run identical
// passes (see the header): its followers hold no scheduler slot, and it
// writes its cross-pass state into them from its own pass ends, so the
// only consumer touching a follower during a round is its leader.
class GuessConsumer final : public ScanConsumer {
 public:
  GuessConsumer(uint64_t k, uint32_t n, uint32_t m, uint32_t max_set_size,
                const IterSetCoverOptions& options,
                const OfflineSolver& offline)
      : k_(k),
        n_(n),
        m_(m),
        max_set_size_(max_set_size),
        options_(&options),
        offline_(&offline),
        rho_(offline.Rho(n)),
        iterations_(static_cast<uint64_t>(
            std::ceil(1.0 / options.delta) + 1e-9)),
        rng_(options.seed ^ (k * 0x9e3779b97f4a7c15ULL)),
        uncovered_(n, true) {
    // epsilon-Partial Set Cover target: stop once the residual fits the
    // allowance (0 for a classic full cover).
    SC_CHECK(options.coverage_fraction > 0.0 &&
             options.coverage_fraction <= 1.0);
    allowed_uncovered_ = AllowedUncovered(n, options.coverage_fraction);
    // Residual ground set, kept across all passes: n/64 words.
    tracker_.Charge(uncovered_.WordCount());
    if (options.early_exit) {
      // Distinct-pick mask for the retire rule; only charged when the
      // feature is on so default space accounting is unchanged.
      picked_distinct_ = DynamicBitset(m);
      tracker_.Charge(picked_distinct_.WordCount());
    }
    Advance();
  }
  // Leaders and followers hold each other's addresses.
  GuessConsumer(const GuessConsumer&) = delete;
  GuessConsumer& operator=(const GuessConsumer&) = delete;

  void OnSet(const SetView& set) override {
    switch (phase_) {
      case Phase::kPass1: {
        // Size Test: heavy sets are taken now, light projections kept.
        // The projection is filtered straight into the iteration's bump
        // arena by the masked-filter kernel — committed if light,
        // rewound if heavy or empty — so the hot path performs no
        // per-set heap allocation and no per-element branch.
        const size_t mark = projections_.StageMark();
        FilterInto(set, live_, projections_.staging_arena());
        const std::span<const uint32_t> staged = projections_.Staged(mark);
        if (staged.empty()) return;
        if (static_cast<double>(staged.size()) >= threshold_) {
          heavy_picks_.push_back(set.id);
          tracker_.Charge(1);
          MarkCovered(staged, live_.bits());
          projections_.Abandon(mark);
        } else {
          tracker_.Charge(staged.size() + 1);  // elements + set id
          projections_.CommitLight(set.id, mark);
        }
        return;
      }
      case Phase::kPass2: {
        // Only the sets picked this iteration can newly cover anything.
        if (!picked_this_iter_.Test(set.id)) return;
        MarkCovered(set, uncovered_);
        return;
      }
      case Phase::kFinalSweep: {
        if (uncovered_.None()) return;
        if (Intersects(set, uncovered_)) {
          sweep_picks_.push_back(set.id);
          tracker_.Charge(1);
          MarkCovered(set, uncovered_);
        }
        return;
      }
      case Phase::kDone:
        return;
    }
  }

  void OnPassEnd() override {
    ++passes_;
    switch (phase_) {
      case Phase::kPass1:
        FinishPass1();
        return;
      case Phase::kPass2:
        FinishPass2();
        return;
      case Phase::kFinalSweep:
        FinishFinalSweep();
        return;
      case Phase::kDone:
        return;
    }
  }

  bool done() const override { return phase_ == Phase::kDone; }

  // Pass 2 acts only on this iteration's picks, and a done guess on
  // nothing; the other passes read every set. Followers hold no slot,
  // so their leader's filter, which is theirs too, covers them.
  ScanFilter needs() const override {
    if (phase_ == Phase::kPass2) return {UINT32_MAX, &picked_this_iter_};
    if (phase_ == Phase::kDone) return {UINT32_MAX};
    return {};
  }

  uint64_t k() const { return k_; }
  bool success() const { return success_; }
  bool killed() const { return killed_; }
  /// Deduplicated cover size; valid once done() and not killed.
  uint64_t final_cover_size() const { return sol_.size(); }
  /// Distinct sets picked so far (maintained only with early_exit on).
  /// Monotone non-decreasing, so it lower-bounds the final cover size.
  uint64_t distinct_picks() const { return distinct_picks_; }
  uint64_t peak_words() const { return tracker_.peak_words(); }
  /// Logical passes this guess consumed: its own OnPassEnd calls, or its
  /// leader's while it followed.
  uint64_t passes() const { return passes_; }

  /// True iff the current iteration is collapsible (see the header):
  /// the sample is the whole residual and no set can be heavy.
  bool collapsible() const { return collapsible_; }
  /// True while the guess rides a leader's passes and holds no slot.
  bool following() const { return leader_ != nullptr; }

  /// Makes `follower` — same state, collapsible, larger k — ride this
  /// guess's passes.
  void Lead(GuessConsumer* follower) {
    follower->leader_ = this;
    followers_.push_back(follower);
  }

  /// Retires the guess: it provably cannot beat the current winner, so
  /// its partial cover is abandoned (peak space already stands). A
  /// follower detaches from its leader; a leader takes its followers
  /// down too — they hold its distinct picks with a larger k, so the
  /// retire rule would kill each of them anyway.
  void Kill() {
    if (leader_ != nullptr) std::erase(leader_->followers_, this);
    leader_ = nullptr;
    for (GuessConsumer* follower : std::exchange(followers_, {})) {
      follower->leader_ = nullptr;
      follower->Kill();
    }
    killed_ = true;
    success_ = false;
    phase_ = Phase::kDone;
  }

  StreamingResult TakeResult(uint64_t logical_passes) {
    StreamingResult result;
    result.cover = std::move(sol_);
    result.success = success_;
    result.passes = logical_passes;
    result.sequential_scans = logical_passes;
    result.physical_scans = logical_passes;
    result.space_words_parallel = tracker_.peak_words();
    result.space_words_max_guess = tracker_.peak_words();
    result.winning_k = k_;
    result.gain_updates = gain_updates_;
    result.sets_touched = sets_touched_;
    result.diagnostics = std::move(diagnostics_);
    return result;
  }

 private:
  enum class Phase { kPass1, kPass2, kFinalSweep, kDone };

  void TakeSet(uint32_t id) {
    sol_.set_ids.push_back(id);
    if (options_->early_exit && !picked_distinct_.Test(id)) {
      picked_distinct_.Set(id);
      ++distinct_picks_;
    }
  }

  // Inter-pass work at the top of an iteration: termination checks,
  // sampling, Size-Test threshold. Leaves the consumer waiting for a
  // pass (or done), and decides whether the iteration is collapsible.
  void Advance() {
    collapsible_ = false;
    uncovered_count_ = uncovered_.Count();
    if (uncovered_count_ <= allowed_uncovered_ || iter_ >= iterations_ ||
        Stalled()) {
      Finalize();
      return;
    }
    diag_ = IterSetCoverIterationDiag{};
    diag_.iteration = static_cast<uint32_t>(iter_ + 1);
    diag_.uncovered_before = uncovered_count_;

    // Section 4.2 refinement: when <= k stragglers remain, one sweep
    // taking any covering set per straggler finishes the job.
    if (options_->final_sweep && uncovered_count_ <= k_) {
      sweep_picks_.clear();
      phase_ = Phase::kFinalSweep;
      return;
    }

    // --- Sample S from the residual (Lemma 2.5 size). ---
    const uint64_t sample_size = IterSetCoverSampleSize(
        options_->sample_constant, rho_, k_, n_, options_->delta, m_,
        uncovered_count_);
    sample_ = SampleFromBitset(uncovered_.bits(), sample_size, rng_);
    diag_.sample_size = sample_.size();
    tracker_.Charge(sample_.size());  // the sample's element ids

    // L <- S, as a membership mask over U (n/64 words).
    live_ = LiveMask(n_);
    for (uint32_t e : sample_) live_.Set(e);
    tracker_.Charge(live_.WordCount());

    threshold_ = options_->size_test_multiplier *
                 static_cast<double>(sample_.size()) /
                 static_cast<double>(k_);
    collapsible_ = sample_size >= uncovered_count_ &&
                   threshold_ > static_cast<double>(max_set_size_);
    heavy_picks_.clear();
    // Epoch reset: the previous iteration's projections died with their
    // ReleaseEpoch in FinishPass1, so the store drops to empty in O(1)
    // with the word watermark provably at zero.
    projections_.ResetEpoch();
    phase_ = Phase::kPass1;
  }

  // True when no later iteration can cover anything, so the guess ends
  // now with the cover, success and peak space it would end with
  // anyway; only its passes would grow. That holds once the last
  // iteration sampled the whole residual and either
  //  - kept its whole offline cover, as a full-cover target always does
  //    (only a partial target trims it): by OfflineSolver's contract that
  //    cover took every coverable sampled element, and pass 2 covered
  //    the heavy picks, so what is left lies in no set. Later samples
  //    then project to nothing, and each later iteration charges no more
  //    than this one did; or
  //  - covered nothing: the residual is unchanged, so every later
  //    iteration draws the same sample (with no Rng draw), keeps the
  //    same projections and gets the same offline cover.
  // Read from diagnostics_, which followers copy from their leader, so a
  // class stops together.
  bool Stalled() const {
    if (diagnostics_.empty()) return false;
    const IterSetCoverIterationDiag& last = diagnostics_.back();
    if (last.sample_size != last.uncovered_before) return false;
    return allowed_uncovered_ == 0 ||
           last.uncovered_after == last.uncovered_before;
  }

  void FinishPass1() {
    diag_.heavy_picked = heavy_picks_.size();
    diag_.projection_words = projections_.words();
    for (uint32_t id : heavy_picks_) TakeSet(id);

    // --- Offline solve on the sampled sub-instance (no pass). ---
    // Re-index the still-live sampled elements to [0, n_sub). The
    // sample is ascending, so the map is increasing and the projections
    // stay sorted as the store rewrites them in place into the
    // sub-instance; the compacted buffer is freed with `sub` below.
    std::vector<uint32_t> reindex(n_, UINT32_MAX);
    uint32_t n_sub = 0;
    for (uint32_t e : sample_) {
      if (live_.Test(e)) reindex[e] = n_sub++;
    }
    if (n_sub > 0) {
      std::vector<uint32_t> original_ids;
      const SetSystem sub =
          projections_.TakeSubInstance(reindex, n_sub, original_ids);
      OfflineResult offline_result = offline_->Solve(sub);
      gain_updates_ += offline_result.gain_updates;
      sets_touched_ += offline_result.sets_touched;
      size_t take = offline_result.cover.size();
      if (allowed_uncovered_ > 0 && uncovered_count_ > 0) {
        // epsilon-Partial: the sample is a relative approximation of the
        // residual (Lemma 2.5), so leaving the proportional share of the
        // sample uncovered suffices. Greedy emits picks in decreasing
        // marginal order, so trimming the pick tail IS the greedy
        // partial cover of the sub-instance.
        const uint64_t sub_allowed =
            allowed_uncovered_ * n_sub / uncovered_count_;
        if (sub_allowed > 0) {
          DynamicBitset covered_sub(sub.num_elements());
          uint64_t covered_count = 0;
          take = 0;
          for (uint32_t sub_id : offline_result.cover.set_ids) {
            if (sub.num_elements() - covered_count <= sub_allowed) break;
            for (uint32_t e : sub.GetSet(sub_id)) {
              if (!covered_sub.Test(e)) {
                covered_sub.Set(e);
                ++covered_count;
              }
            }
            ++take;
          }
        }
      }
      diag_.offline_picked = take;
      for (size_t i = 0; i < take; ++i) {
        TakeSet(original_ids[offline_result.cover.set_ids[i]]);
        tracker_.Charge(1);
      }
    }

    // Projections, sample ids, and the live mask die with the iteration
    // (the store resets at the top of the next one, with the watermark
    // attribution CHECKed back to zero here).
    projections_.ReleaseEpoch(tracker_);
    tracker_.Release(sample_.size());
    tracker_.Release(live_.WordCount());

    picked_this_iter_ = DynamicBitset(m_);
    const size_t new_from = sol_.set_ids.size() - diag_.heavy_picked -
                            diag_.offline_picked;
    for (size_t i = new_from; i < sol_.set_ids.size(); ++i) {
      picked_this_iter_.Set(sol_.set_ids[i]);
    }
    tracker_.Charge(picked_this_iter_.WordCount());
    phase_ = Phase::kPass2;
    SyncFollowers();
  }

  void FinishPass2() {
    tracker_.Release(picked_this_iter_.WordCount());
    diag_.uncovered_after = uncovered_.Count();
    diagnostics_.push_back(diag_);
    ++iter_;
    // Iteration boundary: every follower, in this guess's state, runs
    // its own Advance. A follower whose iteration stays collapsible
    // stays; the others leave for a slot of their own. If this guess
    // leaves while members stay, the smallest staying k leads them.
    // (Today's sample size grows with k and ignores the residual, so
    // the smallest k is the last to leave; the hand-over keeps the
    // class exact should that change.)
    SyncFollowers();
    std::vector<GuessConsumer*> staying;
    for (GuessConsumer* follower : std::exchange(followers_, {})) {
      follower->Advance();
      if (follower->collapsible_) {
        staying.push_back(follower);
      } else {
        follower->leader_ = nullptr;
      }
    }
    Advance();
    if (collapsible_ || staying.empty()) {
      followers_ = std::move(staying);
      return;
    }
    GuessConsumer* next = staying.front();
    next->leader_ = nullptr;
    for (size_t i = 1; i < staying.size(); ++i) next->Lead(staying[i]);
  }

  // Copies the cross-pass state into every follower: everything the
  // driver reads between rounds (distinct picks, peak space) and
  // everything TakeResult reports. A follower's phase and Rng stay its
  // own: it is not done while its leader is not, and a collapsible
  // iteration never draws from the Rng.
  void SyncFollowers() {
    for (GuessConsumer* follower : followers_) {
      follower->tracker_ = tracker_;
      follower->uncovered_ = uncovered_;
      follower->sol_ = sol_;
      follower->picked_distinct_ = picked_distinct_;
      follower->distinct_picks_ = distinct_picks_;
      follower->diagnostics_ = diagnostics_;
      follower->gain_updates_ = gain_updates_;
      follower->sets_touched_ = sets_touched_;
      follower->iter_ = iter_;
      follower->passes_ = passes_;
    }
  }

  void FinishFinalSweep() {
    for (uint32_t id : sweep_picks_) TakeSet(id);
    diag_.heavy_picked = sweep_picks_.size();
    diag_.uncovered_after = uncovered_.Count();
    diagnostics_.push_back(diag_);
    Finalize();
  }

  void Finalize() {
    success_ = uncovered_.Count() <= allowed_uncovered_;
    tracker_.Release(uncovered_.WordCount());
    if (options_->early_exit) {
      tracker_.Release(picked_distinct_.WordCount());
    }
    sol_.Deduplicate();
    phase_ = Phase::kDone;
  }

  // Immutable configuration.
  const uint64_t k_;
  const uint32_t n_;
  const uint32_t m_;
  const uint32_t max_set_size_;  // the stream's bound (SetSource)
  const IterSetCoverOptions* options_;
  const OfflineSolver* offline_;
  const double rho_;
  const uint64_t iterations_;
  uint64_t allowed_uncovered_ = 0;

  // Cross-iteration state.
  Rng rng_;
  SpaceTracker tracker_;
  LiveMask uncovered_;
  Cover sol_;
  DynamicBitset picked_distinct_;
  uint64_t distinct_picks_ = 0;
  std::vector<IterSetCoverIterationDiag> diagnostics_;
  uint64_t gain_updates_ = 0;
  uint64_t sets_touched_ = 0;
  uint64_t iter_ = 0;
  uint64_t passes_ = 0;
  bool success_ = false;
  bool killed_ = false;
  Phase phase_ = Phase::kDone;

  // Class membership: a follower points at its leader, a leader lists
  // its followers (ascending k); a guess outside any class has neither.
  GuessConsumer* leader_ = nullptr;
  std::vector<GuessConsumer*> followers_;
  bool collapsible_ = false;

  // Per-iteration state. Projections live in an arena-backed store
  // whose epoch is the iteration; accounting stays in logical words.
  IterSetCoverIterationDiag diag_;
  uint64_t uncovered_count_ = 0;
  std::vector<uint32_t> sample_;
  LiveMask live_;
  double threshold_ = 0.0;
  std::vector<uint32_t> heavy_picks_;
  ProjectionStore projections_;
  DynamicBitset picked_this_iter_;
  std::vector<uint32_t> sweep_picks_;
};

// The winner rule of the sequential implementation — ascending k, a
// success replaces the incumbent only when strictly smaller — picks the
// success minimizing (cover size, k) lexicographically. A live guess
// whose distinct-pick count already sorts at-or-after the incumbent on
// that key can therefore never win: distinct picks only grow and
// deduplication cannot shrink below them.
void RetireHopelessGuesses(
    std::vector<std::unique_ptr<GuessConsumer>>& guesses) {
  uint64_t best_size = UINT64_MAX;
  uint64_t best_k = UINT64_MAX;
  for (const auto& guess : guesses) {
    if (guess->done() && !guess->killed() && guess->success()) {
      const uint64_t size = guess->final_cover_size();
      if (size < best_size || (size == best_size && guess->k() < best_k)) {
        best_size = size;
        best_k = guess->k();
      }
    }
  }
  if (best_size == UINT64_MAX) return;
  for (auto& guess : guesses) {
    if (guess->done()) continue;
    const uint64_t distinct = guess->distinct_picks();
    if (distinct > best_size ||
        (distinct == best_size && guess->k() > best_k)) {
      guess->Kill();
    }
  }
}

}  // namespace

StreamingResult IterSetCoverSingleGuess(PassScheduler& scheduler, uint64_t k,
                                        const IterSetCoverOptions& options) {
  SC_CHECK(options.delta > 0.0 && options.delta <= 1.0);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;
  GuessConsumer guess(k, scheduler.stream().num_elements(),
                      scheduler.stream().num_sets(),
                      scheduler.stream().max_set_size(), options, offline);
  PassScheduler::SoloRun run = scheduler.DriveToCompletion(guess);
  StreamingResult result = guess.TakeResult(run.logical_passes);
  result.physical_scans = run.physical_scans;
  return result;
}

StreamingResult IterSetCoverSingleGuess(SetStream& stream, uint64_t k,
                                        const IterSetCoverOptions& options) {
  PassScheduler scheduler(stream);
  return IterSetCoverSingleGuess(scheduler, k, options);
}

StreamingResult IterSetCover(PassScheduler& scheduler,
                             const IterSetCoverOptions& options) {
  SC_CHECK(options.delta > 0.0 && options.delta <= 1.0);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;

  const uint32_t n = scheduler.stream().num_elements();
  const uint32_t m = scheduler.stream().num_sets();
  const uint32_t max_set_size = scheduler.stream().max_set_size();
  const uint64_t physical_before = scheduler.physical_scans();

  // Guesses k = 2^i, i in [0, log n]. They all start in the same state,
  // so those whose first iteration is collapsible form the one class,
  // led by its smallest k; a guess that leaves never rejoins.
  std::vector<std::unique_ptr<GuessConsumer>> guesses;
  GuessConsumer* leader = nullptr;
  for (uint64_t k = 1;; k *= 2) {
    guesses.push_back(std::make_unique<GuessConsumer>(k, n, m, max_set_size,
                                                      options, offline));
    GuessConsumer* guess = guesses.back().get();
    if (guess->collapsible()) {
      if (leader == nullptr) {
        leader = guess;
      } else {
        leader->Lead(guess);
      }
    }
    if (k >= n) break;
  }

  // Every guess that is not following holds a slot: pass p of every
  // live slot rides the p-th physical scan. A guess that leaves the
  // class (or comes to lead it) mid-round is registered after that
  // round, in time for the next pass it needs.
  constexpr size_t kNoSlot = SIZE_MAX;
  std::vector<size_t> slots(guesses.size(), kNoSlot);
  auto register_leavers = [&] {
    for (size_t i = 0; i < guesses.size(); ++i) {
      if (slots[i] == kNoSlot && !guesses[i]->following()) {
        slots[i] = scheduler.Register(guesses[i].get());
      }
    }
  };
  register_leavers();

  // Drive rounds only while OUR guesses are live: foreign consumers on
  // the same scheduler ride these scans but never extend this run's
  // window or inflate its physical-scan attribution.
  auto any_guess_live = [&] {
    for (const auto& guess : guesses) {
      if (!guess->done()) return true;
    }
    return false;
  };
  while (any_guess_live()) {
    // A 0 return with guesses still live means the stream failed
    // mid-scan (scheduler.stream_failed()); the guesses can never
    // finish, so stop driving — they surface as unsuccessful results
    // and RunSolver reports the stream error.
    if (scheduler.RunRound() == 0) break;
    register_leavers();
    if (options.early_exit) RetireHopelessGuesses(guesses);
  }

  // Winner selection identical to the sequential implementation:
  // ascending k, replace only on strictly smaller cover. Accounting is
  // the parallel composition (passes: max; space: sum) plus the new
  // physical column.
  StreamingResult best;
  uint64_t passes_max = 0;
  uint64_t scans_total = 0;
  uint64_t space_sum = 0;
  uint64_t space_max = 0;
  for (size_t i = 0; i < guesses.size(); ++i) {
    const uint64_t peak = guesses[i]->peak_words();
    StreamingResult guess_result =
        guesses[i]->TakeResult(guesses[i]->passes());
    passes_max = std::max(passes_max, guess_result.passes);
    scans_total += guess_result.sequential_scans;
    space_sum += peak;
    space_max = std::max(space_max, peak);
    if (guess_result.success &&
        (!best.success || guess_result.cover.size() < best.cover.size())) {
      best = std::move(guess_result);
    }
    if (slots[i] != kNoSlot) scheduler.Retire(slots[i]);
  }
  best.passes = passes_max;
  best.sequential_scans = scans_total;
  best.physical_scans = scheduler.physical_scans() - physical_before;
  best.space_words_parallel = space_sum;
  best.space_words_max_guess = space_max;
  return best;
}

StreamingResult IterSetCover(SetStream& stream,
                             const IterSetCoverOptions& options) {
  PassScheduler scheduler(stream);
  return IterSetCover(scheduler, options);
}

}  // namespace streamcover
