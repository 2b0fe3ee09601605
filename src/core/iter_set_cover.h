// iterSetCover — the paper's main algorithm (Figure 1.3, Theorem 2.8).
//
// A O(1/delta)-pass, O~(m n^delta)-space, O(rho/delta)-approximation
// streaming algorithm for SetCover. Per optimal-size guess k (all powers
// of two, composed "in parallel"):
//
//   repeat 1/delta times:
//     S  <- uniform sample of the uncovered elements,
//           |S| = c * rho * k * n^delta * log m * log n     (Lemma 2.5)
//     pass 1 over F:
//       heavy set (covers >= |S|/k of the live sample)  -> take it now
//       light set -> store its projection onto the live sample
//     D  <- algOfflineSC on the sampled sub-instance; take D
//     pass 2 over F: recompute the uncovered elements
//
// Lemma 2.6: each iteration shrinks the uncovered count by ~n^delta and
// adds O(rho k) sets, so 1/delta iterations cover everything with
// O(rho k / delta) sets in 2/delta passes (Lemma 2.1) and O~(m n^delta)
// words (Lemma 2.2).
//
// Execution model: the guesses are ScanConsumer state machines
// multiplexed on a PassScheduler — pass p of every live guess is served
// by the p-th physical scan of the repository, exactly the parallel
// composition the paper's accounting assumes. `physical_scans` is what
// the repository paid; `passes` (per-guess max) and `sequential_scans`
// (per-guess sum — what the old one-guess-at-a-time implementation
// scanned) are the logical views.
//
// Guesses that provably coincide run once. An iteration is collapsible
// when its sample is the whole residual (Lemma 2.5's size clamped, so
// the sampler draws nothing from the guess's Rng) and its Size-Test
// threshold exceeds the stream's set-size bound (SetStream::
// max_set_size, so no set is heavy): such an iteration is store-all
// greedy on the residual, whatever k is. Guesses that enter one in the
// same state therefore run identical passes. They form one class:
//   - the guesses whose first iteration is collapsible (all guesses
//     start in the same state) are the class, and its smallest k leads;
//   - only the leader holds a PassScheduler slot and runs the passes;
//     followers receive no OnSet and no OnPassEnd;
//   - each leader pass end copies the cross-pass state (residual,
//     cover, SpaceTracker, diagnostics, counters, pass count) into the
//     followers, so everything the driver reads between rounds is exact;
//   - at each iteration boundary every follower runs its own Advance
//     from that state; those whose iteration is no longer collapsible
//     leave and get a slot after the round, and never rejoin (if the
//     leader leaves, the smallest staying k leads the rest).
// Each guess counts its own logical passes, so every reported column —
// cover, passes, scans, space, diagnostics — equals the uncollapsed
// run's. At the paper's multiplier (1) a source whose bound is n — the
// text format — never collapses: |S|/k never exceeds n.
// IterSetCoverSingleGuess runs one guess and has no class.
//
// Early stop: once an iteration has sampled the whole residual, a
// full-cover guess has covered every element that lies in some set (the
// offline solver covers all coverable sampled elements), and a partial
// one that covered nothing would repeat itself. No later iteration can
// cover anything, so the guess ends there: an input with an element in
// no set returns after its first such iteration, not after 2/delta
// passes, with the same cover, success and space.
//
// Filtered scans: a guess in its second pass declares to the scheduler
// (ScanConsumer::needs) only the sets it picked this iteration, since
// its OnSet returns on every other set; a done guess declares none, and
// the Size-Test pass and the final sweep read every set. When every
// live guess is in its second pass, a binary file decodes only the
// union of their picks (stream/pipelined_scan.h). Each guess still sees
// every set it acts on, in stream order, so every column is unchanged.

#ifndef STREAMCOVER_CORE_ITER_SET_COVER_H_
#define STREAMCOVER_CORE_ITER_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "offline/solver.h"
#include "setsystem/cover.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "stream/space_tracker.h"

namespace streamcover {

/// Tuning knobs for IterSetCover. Defaults follow Figure 1.3 with the
/// constant c made explicit (and honest at laptop scale).
struct IterSetCoverOptions {
  /// Trade-off parameter: 2/delta passes, O~(m n^delta) space.
  double delta = 0.5;
  /// The constant c in the sample size c*rho*k*n^delta*log m*log n.
  double sample_constant = 0.5;
  /// Offline solver (algOfflineSC). If null, a GreedySolver is used.
  const OfflineSolver* offline = nullptr;
  /// Seed for the element sampler.
  uint64_t seed = 1;
  /// Multiplies the Size-Test threshold |S|/k (1.0 = paper). Ablation
  /// knob for Lemma 2.3.
  double size_test_multiplier = 1.0;
  /// Section 4.2 refinement: once <= k elements remain uncovered, spend
  /// one final pass taking an arbitrary covering set per element instead
  /// of more sampling iterations.
  bool final_sweep = false;
  /// epsilon-Partial Set Cover ([ER14]/[CW16] generalization, §1): stop
  /// once at least this fraction of U is covered; `success` then means
  /// the fraction was reached. 1.0 = classic full cover.
  double coverage_fraction = 1.0;
  /// Retire a still-running guess between rounds once a completed guess
  /// already beats everything it could still produce (its deduplicated
  /// partial cover is provably no smaller than the winner's — the
  /// distinct-pick count only grows). Never changes the winning cover;
  /// shaves physical scans and makes `passes` reflect passes actually
  /// consumed. Off by default so pass accounting matches Lemma 2.1's
  /// run-to-completion reading exactly.
  bool early_exit = false;
};

/// Per-iteration trace of the winning guess (benches & tests).
struct IterSetCoverIterationDiag {
  uint32_t iteration = 0;
  uint64_t uncovered_before = 0;
  uint64_t uncovered_after = 0;
  uint64_t sample_size = 0;
  uint64_t heavy_picked = 0;
  uint64_t offline_picked = 0;
  uint64_t projection_words = 0;  ///< peak words of stored projections

  bool operator==(const IterSetCoverIterationDiag&) const = default;
};

/// Outcome of a streaming solve, with the accounting the paper's bounds
/// are stated in.
struct StreamingResult {
  Cover cover;
  /// True iff every element ended up covered.
  bool success = false;
  /// Passes per Lemma 2.1: the per-guess maximum (guesses run in
  /// parallel in the paper's accounting).
  uint64_t passes = 0;
  /// Logical per-guess passes summed over all guesses — what a
  /// sequential one-guess-at-a-time implementation scans.
  uint64_t sequential_scans = 0;
  /// Physical scans of the repository actually performed: one shared
  /// scan per round serves every live guess, so this collapses to
  /// `passes` (+0 rounds of overhead) instead of `sequential_scans`.
  uint64_t physical_scans = 0;
  /// Peak working memory: sum over guesses of per-guess peaks (parallel
  /// composition, Lemma 2.2's x log n factor).
  uint64_t space_words_parallel = 0;
  /// Peak working memory of the single heaviest guess.
  uint64_t space_words_max_guess = 0;
  /// The guess k that produced the returned cover.
  uint64_t winning_k = 0;
  /// Gain-maintenance accounting of the winning guess's offline solves,
  /// summed over its iterations (setsystem/transposed_index.h): O(1)
  /// gain decrements and candidate-gain evaluations. Zero when the
  /// offline solver does not report them.
  uint64_t gain_updates = 0;
  uint64_t sets_touched = 0;
  std::vector<IterSetCoverIterationDiag> diagnostics;
};

/// Runs iterSetCover with every guess multiplexed on `scheduler` (and
/// on its worker threads, if any). The returned cover is verified
/// feasible iff `success`.
StreamingResult IterSetCover(PassScheduler& scheduler,
                             const IterSetCoverOptions& options);

/// Convenience: single-threaded scheduler over `stream`.
StreamingResult IterSetCover(SetStream& stream,
                             const IterSetCoverOptions& options);

/// Runs only the single guess `k` (exposed for tests and ablations).
StreamingResult IterSetCoverSingleGuess(PassScheduler& scheduler, uint64_t k,
                                        const IterSetCoverOptions& options);
StreamingResult IterSetCoverSingleGuess(SetStream& stream, uint64_t k,
                                        const IterSetCoverOptions& options);

}  // namespace streamcover

#endif  // STREAMCOVER_CORE_ITER_SET_COVER_H_
