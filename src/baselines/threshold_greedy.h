// Threshold-greedy baselines in O~(n) space:
//
// * ProgressiveGreedy — the [SG09]-style thresholding of greedy: passes
//   with thresholds n/2, n/4, ..., 1; any set covering >= threshold
//   yet-uncovered elements is taken on sight. O(log n) passes, O(log n)
//   approximation, O~(n) space (Figure 1.1 row [SG09]). Under a pick
//   budget it is also streaming Max k-Cover (registry
//   `streaming_max_cover`): it stops taking sets once it holds k, a
//   constant-factor loss against greedy's 1 - 1/e coverage.
//
// * PolynomialThresholdCover — the [ER14]/[CW16] trade-off: p passes
//   with thresholds n^{(p+1-i)/(p+1)} (i = 1..p); throughout, each
//   still-uncovered element remembers one set containing it (O(n)
//   words); after the last pass those remembered sets finish the cover.
//   Approximation (p+1) * n^{1/(p+1)}; p = 1 is [ER14]'s one-pass
//   O(sqrt(n)), general p is [CW16]. These are the published algorithms'
//   threshold skeletons, which realize the stated bounds; paper-specific
//   charging refinements do not change the exponent (see DESIGN.md).
//
// Both share one take rule, written once in threshold_greedy.cc: a set
// is taken iff its residual gain is positive and clears the pass
// threshold. A set's gain is at most its size, so a set smaller than
// the threshold is skipped before any kernel runs; on sparse inputs a
// pass whose threshold exceeds every set size runs no kernel at all.
// The rule counts before it writes: CountUncovered gives the gain, and
// only a taken set runs MarkCovered, so the many sets that reach the
// kernel but fail the threshold cost one read-only sweep each.
//
// The sieve records its backup pointers in pass 1 only, straight from
// each set. Pass 1 sees every set, and an element is still uncovered
// when the first set containing it arrives: only an earlier pick that
// holds it could have cleared it. So each backup is the first set
// containing e, the same pointer a per-pass walk of the residual would
// keep. This relies on every pass delivering the same repository, as
// every multi-pass solver does.
//
// The polynomial sieve is expressed as a ScanConsumer
// (ThresholdSieveConsumer): its p threshold levels are a per-pass state
// machine drivable by PassScheduler, so it can share physical scans
// with other consumers — the [ER14] sieving shape on the same seam
// iterSetCover's guesses use.
//
// The same size rule is what the sieve declares to the scheduler
// (ScanConsumer::needs): pass 1 wants every set, for the backups; a
// later pass wants the sets of at least ceil(threshold) elements — for
// an integer size, size >= ceil(t) exactly when size >= t, so the sets
// it leaves out are the ones OnSet skips; once the sieve is done or its
// partial target is met it wants none. A binary file then skips
// decoding every other body (stream/pipelined_scan.h). OnSet keeps its
// own size check, since in-memory sources and first scans still
// deliver every set.

#ifndef STREAMCOVER_BASELINES_THRESHOLD_GREEDY_H_
#define STREAMCOVER_BASELINES_THRESHOLD_GREEDY_H_

#include <cstdint>
#include <vector>

#include "baselines/baseline_result.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"

namespace streamcover {

/// [SG09]-style: halving thresholds, O(log n) passes, O~(n) space.
/// `coverage_fraction` < 1 runs the epsilon-Partial Set Cover variant
/// (both [ER14] and [CW16] state their results for it): the algorithm
/// stops as soon as that fraction of U is covered. It also stops once
/// it has taken `max_picks` sets (0 takes none).
BaselineResult ProgressiveGreedy(SetStream& stream,
                                 double coverage_fraction = 1.0,
                                 uint64_t max_picks = UINT64_MAX);

/// The [ER14]/[CW16] polynomial threshold sieve as a pass-driven state
/// machine: pass i applies threshold n^{(p+1-i)/(p+1)}; after pass p
/// the per-element backup pointers finish the cover without another
/// pass.
class ThresholdSieveConsumer final : public ScanConsumer {
 public:
  ThresholdSieveConsumer(uint32_t n, uint32_t p,
                         double coverage_fraction = 1.0);

  void OnSet(const SetView& set) override;
  void OnPassEnd() override;
  bool done() const override { return done_; }
  /// Every set in pass 1; then the sets of at least ceil(threshold)
  /// elements; none once done or the partial target is met.
  ScanFilter needs() const override;

  /// Finishes accounting; call once the consumer is done.
  BaselineResult TakeResult(uint64_t logical_passes);

 private:
  void FinishFromBackups();

  const uint32_t p_;
  const double dn_;
  uint64_t allowed_uncovered_ = 0;

  SpaceTracker tracker_;
  LiveMask uncovered_;
  std::vector<uint32_t> backup_;  ///< some set containing e; UINT32_MAX = none
  /// Elements whose backup_ is still UINT32_MAX; pass 1 stops walking
  /// sets for backups once it reaches 0.
  uint32_t missing_backups_ = 0;
  uint64_t remaining_ = 0;
  uint32_t pass_index_ = 1;
  double threshold_ = 0.0;
  Cover sol_;
  bool success_ = false;
  bool done_ = false;
};

/// [ER14] (p=1) / [CW16] (p>=1): p threshold passes + pointer finish.
/// `coverage_fraction` < 1 gives the epsilon-Partial variant.
BaselineResult PolynomialThresholdCover(PassScheduler& scheduler, uint32_t p,
                                        double coverage_fraction = 1.0);

/// Convenience: single-threaded scheduler over `stream`.
BaselineResult PolynomialThresholdCover(SetStream& stream, uint32_t p,
                                        double coverage_fraction = 1.0);

}  // namespace streamcover

#endif  // STREAMCOVER_BASELINES_THRESHOLD_GREEDY_H_
