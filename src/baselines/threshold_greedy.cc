#include "baselines/threshold_greedy.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/mathutil.h"

namespace streamcover {
namespace {

// The take rule both threshold baselines share: a set is taken iff its
// residual gain is positive and clears `threshold`. A set smaller than
// the threshold cannot clear it (gain <= |S|), so it is skipped before
// any kernel runs; otherwise the gain is counted first, and only a
// taken set writes the mask. `remaining` is kept in sync.
void TakeIfGainClears(const SetView& set, double threshold,
                      LiveMask& uncovered, uint64_t& remaining, Cover& cover,
                      SpaceTracker& tracker) {
  if (static_cast<double>(set.size()) < threshold) return;
  const size_t gain = CountUncovered(set, uncovered);
  if (gain == 0 || static_cast<double>(gain) < threshold) return;
  cover.set_ids.push_back(set.id);
  tracker.Charge(1);
  MarkCovered(set, uncovered);
  remaining -= gain;
}

// One threshold pass: takes (immediately) every set the take rule
// accepts, stopping acquisition once `remaining` reaches
// `allowed_uncovered` (the epsilon-Partial stop) or the cover holds
// `max_picks` sets (the scan still finishes — a pass cannot be
// aborted — but nothing more is stored).
void ThresholdPass(SetStream& stream, LiveMask& uncovered,
                   uint64_t& remaining, uint64_t allowed_uncovered,
                   uint64_t max_picks, double threshold, Cover& cover,
                   SpaceTracker& tracker) {
  stream.ForEachSet([&](const SetView& set) {
    if (remaining <= allowed_uncovered || cover.size() >= max_picks) return;
    TakeIfGainClears(set, threshold, uncovered, remaining, cover, tracker);
  });
}

}  // namespace

BaselineResult ProgressiveGreedy(SetStream& stream, double coverage_fraction,
                                 uint64_t max_picks) {
  SC_CHECK(coverage_fraction > 0.0 && coverage_fraction <= 1.0);
  SpaceTracker tracker;
  const uint64_t passes_before = stream.passes();
  const uint32_t n = stream.num_elements();
  const uint64_t allowed_uncovered = AllowedUncovered(n, coverage_fraction);

  LiveMask uncovered(n, true);
  tracker.Charge(uncovered.WordCount());
  uint64_t remaining = n;

  BaselineResult result;
  // Thresholds n/2, n/4, ..., 1. The final threshold-1 pass takes any
  // set covering something new, so coverable elements always finish.
  for (double threshold = static_cast<double>(n) / 2.0;;
       threshold /= 2.0) {
    if (threshold < 1.0) threshold = 1.0;
    ThresholdPass(stream, uncovered, remaining, allowed_uncovered,
                  max_picks, threshold, result.cover, tracker);
    if (remaining <= allowed_uncovered) break;
    if (result.cover.size() >= max_picks) break;
    if (threshold == 1.0) break;  // leftovers are uncoverable
  }

  result.success = remaining <= allowed_uncovered;
  result.passes = stream.passes() - passes_before;
  result.physical_scans = result.passes;
  result.space_words = tracker.peak_words();
  return result;
}

ThresholdSieveConsumer::ThresholdSieveConsumer(uint32_t n, uint32_t p,
                                               double coverage_fraction)
    : p_(p),
      dn_(static_cast<double>(std::max(n, 2u))),
      uncovered_(n, true),
      backup_(n, UINT32_MAX),
      missing_backups_(n),
      remaining_(n) {
  SC_CHECK_GE(p, 1u);
  SC_CHECK(coverage_fraction > 0.0 && coverage_fraction <= 1.0);
  allowed_uncovered_ = AllowedUncovered(n, coverage_fraction);
  tracker_.Charge(uncovered_.WordCount());
  tracker_.Charge(n);  // backup[e]: some set containing e (O(n) words)
  threshold_ = std::pow(
      dn_, static_cast<double>(p_) / static_cast<double>(p_ + 1));
}

void ThresholdSieveConsumer::OnSet(const SetView& set) {
  if (done_) return;
  // Backups come from pass 1 alone; threshold_greedy.h says why that
  // keeps every pointer a per-pass residual walk would.
  if (pass_index_ == 1 && missing_backups_ > 0) {
    for (uint32_t e : set) {
      if (backup_[e] == UINT32_MAX) {
        backup_[e] = set.id;
        --missing_backups_;
      }
    }
  }
  if (remaining_ <= allowed_uncovered_) return;  // partial target met
  TakeIfGainClears(set, threshold_, uncovered_, remaining_, sol_, tracker_);
}

ScanFilter ThresholdSieveConsumer::needs() const {
  if (done_) return {UINT32_MAX};
  if (pass_index_ == 1) return {};  // the backups read every set
  if (remaining_ <= allowed_uncovered_) return {UINT32_MAX};
  // OnSet returns on size < threshold_, i.e. size < ceil(threshold_).
  const double min_size = std::ceil(threshold_);
  return {min_size >= static_cast<double>(UINT32_MAX)
              ? UINT32_MAX
              : static_cast<uint32_t>(min_size)};
}

void ThresholdSieveConsumer::FinishFromBackups() {
  // Finish from the per-element backups — no extra pass. For the
  // epsilon-Partial variant, stop as soon as the allowance is met.
  std::vector<uint32_t> stragglers = uncovered_.ToVector();
  for (uint32_t e : stragglers) {
    if (remaining_ <= allowed_uncovered_) break;
    if (!uncovered_.Test(e)) continue;  // a previous backup also had e
    if (backup_[e] == UINT32_MAX) continue;  // uncoverable
    sol_.set_ids.push_back(backup_[e]);
    tracker_.Charge(1);
    uncovered_.Reset(e);
    --remaining_;
  }
  sol_.Deduplicate();

  // Backup sets can overlap; clearing only `e` above over-counts the
  // residual but never misses coverage, so success uses the bitset.
  success_ = uncovered_.Count() <= allowed_uncovered_;
}

void ThresholdSieveConsumer::OnPassEnd() {
  if (done_) return;
  ++pass_index_;
  if (pass_index_ <= p_) {
    const double exponent = static_cast<double>(p_ + 1 - pass_index_) /
                            static_cast<double>(p_ + 1);
    threshold_ = std::pow(dn_, exponent);
    return;
  }
  FinishFromBackups();
  done_ = true;
}

BaselineResult ThresholdSieveConsumer::TakeResult(uint64_t logical_passes) {
  BaselineResult result;
  result.cover = std::move(sol_);
  result.success = success_;
  result.passes = logical_passes;
  result.physical_scans = logical_passes;
  result.space_words = tracker_.peak_words();
  return result;
}

BaselineResult PolynomialThresholdCover(PassScheduler& scheduler, uint32_t p,
                                        double coverage_fraction) {
  ThresholdSieveConsumer consumer(scheduler.stream().num_elements(), p,
                                  coverage_fraction);
  PassScheduler::SoloRun run = scheduler.DriveToCompletion(consumer);
  BaselineResult result = consumer.TakeResult(run.logical_passes);
  result.physical_scans = run.physical_scans;
  return result;
}

BaselineResult PolynomialThresholdCover(SetStream& stream, uint32_t p,
                                        double coverage_fraction) {
  PassScheduler scheduler(stream);
  return PolynomialThresholdCover(scheduler, p, coverage_fraction);
}

}  // namespace streamcover
