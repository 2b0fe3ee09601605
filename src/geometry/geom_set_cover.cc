#include "geometry/geom_set_cover.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "geometry/canonical.h"
#include "offline/greedy.h"
#include "stream/sampling.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/mathutil.h"
#include "util/rng.h"

namespace streamcover {
namespace {

// Lemma 4.5: a range with more than 3|S|/k sample points is oversize.
constexpr double kLightnessSlack = 3.0;

// Definition 4.1: every canonical set has O(1) description (a disk, an
// anchored rectangle piece, a triangle) — 4 words here. Its trace is
// recomputable on demand from the description plus the sample points
// already in memory, so the model charges descriptions, not trace
// lists (CanonicalRepBuilder's trace lists are transient solve buffers).
constexpr uint64_t kDescriptionWords = 4;

// One guess k of algGeomSC as a ScanConsumer over the range space. An
// iteration of Figure 4.1 is three passes — heavy ranges, canonical
// representation, matching — repeated ceil(1/delta) times, then one
// straggler pass. Canonical pieces are built per streamed range in
// OnSet; the sampling and the offline solve on the canonical sets run
// in OnPassEnd, on the scheduler's workers. All mutable state is the
// consumer's own; the points and shapes are shared read-only.
class GeomGuessConsumer final : public ScanConsumer {
 public:
  GeomGuessConsumer(uint64_t k, const GeomDataset& geometry,
                    const GeomSetCoverOptions& options,
                    const OfflineSolver& offline)
      : k_(k),
        n_(static_cast<uint32_t>(geometry.points.size())),
        m_(static_cast<uint32_t>(geometry.shapes.size())),
        geometry_(&geometry),
        options_(&options),
        offline_(&offline),
        rho_(offline.Rho(n_)),
        iterations_(static_cast<uint64_t>(
            std::ceil(1.0 / options.delta) + 1e-9)),
        heavy_threshold_(static_cast<double>(n_) / static_cast<double>(k)),
        rng_(options.seed ^ (k * 0x9e3779b97f4a7c15ULL)),
        uncovered_(n_, true) {
    // The model stores the point set in memory: 2 words per point.
    tracker_.Charge(2ULL * n_);
    tracker_.Charge(uncovered_.WordCount());
    StartIteration();
  }

  // The scheduler holds its address, and the canonical builder points
  // into sample_points_.
  GeomGuessConsumer(const GeomGuessConsumer&) = delete;
  GeomGuessConsumer& operator=(const GeomGuessConsumer&) = delete;

  void OnSet(const SetView& set) override {
    switch (phase_) {
      case Phase::kHeavy: {
        // Take every heavy range (|r ∩ L| >= |U|/k).
        const auto gain = std::ranges::count_if(
            set.elems, [this](uint32_t e) { return uncovered_.Test(e); });
        if (gain > 0 && static_cast<double>(gain) >= heavy_threshold_) {
          Take(set);
          ++diag_.heavy_picked;
        }
        return;
      }
      case Phase::kCanonical: {
        // The range's trace on S, in sample indices: its trace on U
        // through the dense reindex, which is increasing, so the
        // result is ascending as it stands.
        trace_on_sample_.clear();
        for (uint32_t e : set.elems) {
          const uint32_t local = reindex_[e];
          if (local != UINT32_MAX) trace_on_sample_.push_back(local);
        }
        canonical_->Add(geometry_->shapes[set.id], trace_on_sample_);
        return;
      }
      case Phase::kMatch: {
        // Replace each chosen canonical set by a superset range.
        if (unmatched_ == 0) return;
        for (size_t i = 0; i < chosen_.size(); ++i) {
          if (matched_[i] || !std::ranges::includes(set.elems, chosen_[i])) {
            continue;
          }
          matched_[i] = true;
          --unmatched_;
          Take(set);
        }
        return;
      }
      case Phase::kStragglers:
        // Cover the <= k stragglers with one range each.
        for (uint32_t e : set.elems) {
          if (uncovered_.Test(e)) return Take(set);
        }
        return;
      case Phase::kDone:
        return;
    }
  }

  void OnPassEnd() override {
    switch (phase_) {
      case Phase::kHeavy:
        return FinishHeavyPass();
      case Phase::kCanonical:
        return FinishCanonicalPass();
      case Phase::kMatch:
        return FinishMatchPass();
      case Phase::kStragglers:
        return Finalize();
      case Phase::kDone:
        return;
    }
  }

  bool done() const override { return phase_ == Phase::kDone; }

  /// The guess's own result; the entry points fill in physical_scans.
  GeomStreamingResult TakeResult(uint64_t logical_passes) {
    GeomStreamingResult result;
    result.cover = std::move(sol_);
    result.success = success_;
    result.passes = logical_passes;
    result.sequential_scans = logical_passes;
    result.space_words_parallel = tracker_.peak_words();
    result.space_words_max_guess = tracker_.peak_words();
    result.winning_k = k_;
    result.diagnostics = std::move(diagnostics_);
    return result;
  }

 private:
  enum class Phase { kHeavy, kCanonical, kMatch, kStragglers, kDone };

  void Take(const SetView& set) {
    sol_.set_ids.push_back(set.id);
    tracker_.Charge(1);
    for (uint32_t e : set.elems) uncovered_.Reset(e);
  }

  // Top of an iteration; once the iterations are spent, the straggler
  // pass (every path that empties the residual finalizes instead).
  void StartIteration() {
    if (iter_ == iterations_) {
      phase_ = Phase::kStragglers;
      return;
    }
    diag_ = GeomIterationDiag{};
    diag_.iteration = static_cast<uint32_t>(iter_ + 1);
    diag_.uncovered_before = uncovered_.Count();
    phase_ = Phase::kHeavy;
  }

  void FinishHeavyPass() {
    const uint64_t uncovered_count = uncovered_.Count();
    if (uncovered_count == 0) {
      diag_.uncovered_after = 0;
      diagnostics_.push_back(diag_);
      Finalize();
      return;
    }

    // --- Sample S ⊆ L of size c*rho*k*(n/k)^delta*log m*log n. ---
    const uint64_t sample_size =
        GeomSampleSize(options_->sample_constant, rho_, k_, n_,
                       options_->delta, m_, uncovered_count);
    sample_ = SampleFromBitset(uncovered_, sample_size, rng_);
    diag_.sample_size = sample_.size();
    tracker_.Charge(sample_.size());

    // The sample as a point set, and the dense reindex U -> S. The
    // sample is ascending, so the reindex is increasing.
    sample_points_.clear();
    reindex_.assign(n_, UINT32_MAX);
    for (uint32_t i = 0; i < sample_.size(); ++i) {
      sample_points_.push_back(geometry_->points[sample_[i]]);
      reindex_[sample_[i]] = i;
    }
    const double w =
        std::max(1.0, kLightnessSlack * static_cast<double>(sample_.size()) /
                          static_cast<double>(k_));
    canonical_.emplace(sample_points_, w);
    phase_ = Phase::kCanonical;
  }

  void FinishCanonicalPass() {
    const TraceStore& store = canonical_->store();
    diag_.canonical_sets = store.size();
    diag_.canonical_words = store.total_words();
    diag_.oversize_ranges = canonical_->oversize_ranges();
    tracker_.Charge(kDescriptionWords * store.size());

    // --- Offline solve over (S, canonical sets). ---
    SetSystem::Builder sub_builder(static_cast<uint32_t>(sample_.size()));
    for (const auto& trace : store.traces()) sub_builder.AddSet(trace);
    const SetSystem sub = std::move(sub_builder).Build();
    const OfflineResult offline_result = offline_->Solve(sub);

    // Chosen canonical sets as point ids, ascending (the sample is).
    chosen_.clear();
    for (uint32_t cid : offline_result.cover.set_ids) {
      std::vector<uint32_t> global;
      for (uint32_t local : store.Get(cid)) global.push_back(sample_[local]);
      chosen_.push_back(std::move(global));
    }
    tracker_.Release(kDescriptionWords * store.size());
    canonical_.reset();
    matched_.assign(chosen_.size(), false);
    unmatched_ = chosen_.size();
    phase_ = Phase::kMatch;
  }

  void FinishMatchPass() {
    // Every canonical set is a sub-trace of some streamed range, so all
    // must match; CHECK defends the invariant.
    SC_CHECK_EQ(unmatched_, 0u);
    tracker_.Release(sample_.size());
    diag_.uncovered_after = uncovered_.Count();
    diagnostics_.push_back(diag_);
    if (diag_.uncovered_after == 0) {
      Finalize();
      return;
    }
    ++iter_;
    StartIteration();
  }

  void Finalize() {
    success_ = uncovered_.None();
    tracker_.Release(uncovered_.WordCount());
    tracker_.Release(2ULL * n_);
    sol_.Deduplicate();
    phase_ = Phase::kDone;
  }

  // Immutable configuration.
  const uint64_t k_;
  const uint32_t n_;
  const uint32_t m_;
  const GeomDataset* geometry_;
  const GeomSetCoverOptions* options_;
  const OfflineSolver* offline_;
  const double rho_;
  const uint64_t iterations_;
  const double heavy_threshold_;

  // Cross-iteration state.
  Rng rng_;
  SpaceTracker tracker_;
  DynamicBitset uncovered_;
  Cover sol_;
  std::vector<GeomIterationDiag> diagnostics_;
  uint64_t iter_ = 0;
  bool success_ = false;
  Phase phase_ = Phase::kDone;

  // Per-iteration state.
  GeomIterationDiag diag_;
  std::vector<uint32_t> sample_;
  std::vector<Point> sample_points_;
  std::vector<uint32_t> reindex_;
  std::vector<uint32_t> trace_on_sample_;
  std::optional<CanonicalRepBuilder> canonical_;
  std::vector<std::vector<uint32_t>> chosen_;
  std::vector<bool> matched_;
  size_t unmatched_ = 0;
};

void CheckInputs(PassScheduler& scheduler, const GeomDataset& geometry,
                 const GeomSetCoverOptions& options) {
  SC_CHECK(options.delta > 0.0 && options.delta <= 1.0);
  // The stream must be the payload's range space: set i = shapes[i].
  SC_CHECK_EQ(scheduler.stream().num_elements(), geometry.points.size());
  SC_CHECK_EQ(scheduler.stream().num_sets(), geometry.shapes.size());
}

}  // namespace

GeomStreamingResult AlgGeomSCSingleGuess(PassScheduler& scheduler,
                                         const GeomDataset& geometry,
                                         uint64_t k,
                                         const GeomSetCoverOptions& options) {
  CheckInputs(scheduler, geometry, options);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;
  GeomGuessConsumer guess(k, geometry, options, offline);
  const PassScheduler::SoloRun run = scheduler.DriveToCompletion(guess);
  GeomStreamingResult result = guess.TakeResult(run.logical_passes);
  result.physical_scans = run.physical_scans;
  return result;
}

GeomStreamingResult AlgGeomSC(PassScheduler& scheduler,
                              const GeomDataset& geometry,
                              const GeomSetCoverOptions& options) {
  CheckInputs(scheduler, geometry, options);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;
  const uint64_t n = geometry.points.size();
  const uint64_t physical_before = scheduler.physical_scans();

  // Guesses k = 2^i up to the first k >= n, registered up front: pass p
  // of every live guess rides the p-th physical scan.
  std::vector<std::unique_ptr<GeomGuessConsumer>> guesses;
  std::vector<size_t> slots;
  for (uint64_t k = 1;; k *= 2) {
    guesses.push_back(
        std::make_unique<GeomGuessConsumer>(k, geometry, options, offline));
    slots.push_back(scheduler.Register(guesses.back().get()));
    if (k >= n) break;
  }

  // Drive rounds only while our guesses are live, so foreign consumers
  // on the scheduler never extend this run's window. A 0 return with
  // guesses live means the stream failed (a fired cancel token
  // included): they can never finish, so they come back unsuccessful.
  auto live = [](const auto& guess) { return !guess->done(); };
  while (std::ranges::any_of(guesses, live) && scheduler.RunRound() > 0) {
  }

  // Winner: ascending k, replaced only by a strictly smaller successful
  // cover. Accounting is the parallel composition (passes: max; space:
  // sum) plus the physical scans the run drove.
  GeomStreamingResult best;
  uint64_t passes_max = 0;
  uint64_t scans_total = 0;
  uint64_t space_sum = 0;
  uint64_t space_max = 0;
  for (size_t i = 0; i < guesses.size(); ++i) {
    GeomStreamingResult guess =
        guesses[i]->TakeResult(scheduler.passes(slots[i]));
    scheduler.Retire(slots[i]);
    passes_max = std::max(passes_max, guess.passes);
    scans_total += guess.sequential_scans;
    space_sum += guess.space_words_max_guess;
    space_max = std::max(space_max, guess.space_words_max_guess);
    if (guess.success &&
        (!best.success || guess.cover.size() < best.cover.size())) {
      best = std::move(guess);
    }
  }
  best.passes = passes_max;
  best.sequential_scans = scans_total;
  best.physical_scans = scheduler.physical_scans() - physical_before;
  best.space_words_parallel = space_sum;
  best.space_words_max_guess = space_max;
  return best;
}

}  // namespace streamcover
