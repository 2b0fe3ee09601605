// The Demaine–Indyk–Mahabadi–Vakilian (DISC 2014) multi-pass algorithm —
// Figure 1.1 row [DIMV14]: O(4^{1/delta}) passes, O~(m n^delta) space,
// O(4^{1/delta} * rho) approximation.
//
// Published structure (element sampling + recursion): to cover a residual
// V, if V is small enough that the projections of *all* sets onto V fit
// in O~(m n^delta) space (|V| <= ~n^delta polylog — without
// iterSetCover's Size Test a single projection can be all of V, so the
// affordable sample is a factor ~k smaller than iterSetCover's), solve
// directly in one pass. Otherwise: sample S ⊂ V of size |V|/n^delta,
// cover S by a recursive streaming call, remove what that cover covers
// (one pass), and recurse on the leftovers. Two recursive children per
// level and ~1/delta levels give the exponential pass count; the union of
// per-level covers gives the exponential approximation factor. Our
// realization measures exponent base ~2 versus the paper's analysis
// constant 4 — the reproduced phenomenon is exponential-vs-linear pass
// growth against iterSetCover (see DESIGN.md).
//
// The algorithm is expressed as a ScanConsumer (the recursion becomes an
// explicit frame stack), so it can share physical scans with any other
// consumers on a PassScheduler — the seam is not iterSetCover-shaped.

#ifndef STREAMCOVER_BASELINES_DIMV14_H_
#define STREAMCOVER_BASELINES_DIMV14_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "baselines/baseline_result.h"
#include "offline/solver.h"
#include "setsystem/set_system.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"
#include "util/rng.h"

namespace streamcover {

/// Options for the DIMV14 baseline.
struct Dimv14Options {
  double delta = 0.5;
  double sample_constant = 0.5;   ///< c in the base-case size formula
  const OfflineSolver* offline = nullptr;  ///< defaults to greedy
  uint64_t seed = 1;
  uint32_t max_depth = 64;        ///< recursion safety valve
};

/// The DIMV14 recursion as a pass-driven state machine: each frame of
/// the published recursion becomes a stack frame, and the two pass
/// kinds (base-case projection pass, covered-removal pass) are served
/// by whatever physical scan the scheduler runs. `options` and
/// `offline` must outlive the consumer.
class Dimv14Consumer final : public ScanConsumer {
 public:
  Dimv14Consumer(uint32_t n, uint32_t m, const Dimv14Options& options,
                 const OfflineSolver& offline);

  void OnSet(const SetView& set) override;
  void OnPassEnd() override;
  bool done() const override { return phase_ == Phase::kDone; }

  /// Finishes accounting; call once the consumer is done.
  BaselineResult TakeResult(uint64_t logical_passes);

 private:
  enum class Phase { kBasePass, kUpdatePass, kDone };
  enum class Stage { kEnter, kAfterChild1, kAfterUpdate };

  struct Frame {
    LiveMask targets;  ///< residual this frame must cover (owned)
    uint32_t depth = 0;
    Stage stage = Stage::kEnter;
    size_t sol_before = 0;          ///< |sol| when child 1 started
    uint64_t child_mask_words = 0;  ///< charge to release after child 1
  };

  /// Runs inter-pass logic (the recursion driver) until a pass is
  /// needed or the stack is empty.
  void Advance();
  void PrepareBasePass(Frame& frame);

  const uint32_t n_;
  const uint32_t m_;
  const Dimv14Options* options_;
  const OfflineSolver* offline_;
  uint64_t base_size_ = 1;

  Rng rng_;
  SpaceTracker tracker_;
  std::vector<Frame> stack_;
  Cover sol_;
  bool failed_ = false;
  Phase phase_ = Phase::kDone;

  // Base-pass scratch (one base pass active at a time). The masked
  // filter kernel writes into a reused buffer that is then reindexed in
  // place and appended to the sub-builder's CSR arena — no per-set
  // vector is materialized. `reindex_` is dense over U: the target
  // element's sub-instance id, UINT32_MAX elsewhere (reset after each
  // base pass, so only the targets are ever written).
  std::vector<uint32_t> base_target_elems_;
  std::vector<uint32_t> reindex_;
  std::optional<SetSystem::Builder> sub_builder_;
  std::vector<uint32_t> original_ids_;
  std::vector<uint32_t> proj_scratch_;
  const LiveMask* base_targets_ = nullptr;
  uint64_t stored_words_ = 0;

  // Update-pass scratch.
  DynamicBitset picked_;
  LiveMask* update_targets_ = nullptr;
};

/// Runs the DIMV14 scheme on `scheduler` (one consumer; pass accounting
/// matches IterSetCover's parallel-guess convention — see the .cc note
/// on why a single run realizes all guesses).
BaselineResult Dimv14Cover(PassScheduler& scheduler,
                           const Dimv14Options& options);

/// Convenience: single-threaded scheduler over `stream`.
BaselineResult Dimv14Cover(SetStream& stream, const Dimv14Options& options);

}  // namespace streamcover

#endif  // STREAMCOVER_BASELINES_DIMV14_H_
