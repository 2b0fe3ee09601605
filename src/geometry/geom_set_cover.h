// algGeomSC — the geometric streaming set cover algorithm
// (Figure 4.1, Theorem 4.6): O(1) passes (3/delta + 1), O~(n) space,
// O(rho)-approximation for points vs disks / axis-parallel rectangles /
// fat triangles.
//
// Differences from iterSetCover that buy the O~(n) space:
//  * the per-iteration sample has size c*rho*k*(n/k)^delta*log m*log n
//    (note (n/k)^delta, enabled by the final sweep that finishes off the
//    last <= k stragglers with one set each);
//  * light ranges are stored through their canonical representation
//    (CanonicalRepBuilder), never as raw projections — the number of
//    distinct canonical sets is near-linear in |S| even when the stream
//    carries quadratically many distinct shallow ranges (Figure 1.2);
//  * a third pass maps each chosen canonical set back to a concrete
//    superset range from the stream.
//
// Execution model: each guess k is a ScanConsumer on a PassScheduler
// over the instance's range space (set i = trace of shapes[i]), so one
// physical scan serves every guess. A guess reads shapes[i] only while
// set i streams, and never stores the range space: its SpaceTracker
// charges points, residual, sample and canonical descriptions, as
// Theorem 4.6 counts them.

#ifndef STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_
#define STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "geometry/geom_io.h"
#include "offline/solver.h"
#include "setsystem/cover.h"
#include "stream/pass_scheduler.h"

namespace streamcover {

/// Tuning knobs for AlgGeomSC; defaults follow Figure 4.1 / Theorem 4.6
/// (delta = 1/4 gives constant passes).
struct GeomSetCoverOptions {
  double delta = 0.25;
  double sample_constant = 0.5;
  /// Offline solver for the sampled canonical sub-instance; null =>
  /// greedy. Guesses may call Solve concurrently (scheduler threads).
  const OfflineSolver* offline = nullptr;
  uint64_t seed = 1;
};

/// Per-iteration trace for benches/tests.
struct GeomIterationDiag {
  uint32_t iteration = 0;
  uint64_t uncovered_before = 0;
  uint64_t uncovered_after = 0;
  uint64_t sample_size = 0;
  uint64_t heavy_picked = 0;
  uint64_t canonical_sets = 0;
  uint64_t canonical_words = 0;
  uint64_t oversize_ranges = 0;
};

/// Result of a geometric streaming solve.
struct GeomStreamingResult {
  Cover cover;  ///< shape ids (= range-space set ids)
  bool success = false;
  uint64_t passes = 0;                ///< per-guess max (parallel guesses)
  uint64_t sequential_scans = 0;      ///< per-guess passes, summed
  uint64_t physical_scans = 0;        ///< shared scans driven (= passes)
  uint64_t space_words_parallel = 0;  ///< sum of per-guess peaks
  uint64_t space_words_max_guess = 0;
  uint64_t winning_k = 0;
  std::vector<GeomIterationDiag> diagnostics;  ///< the winning guess's
};

/// Runs algGeomSC with the guesses k = 1, 2, 4, ... (up to the first
/// k >= n) multiplexed on `scheduler`, whose stream must be the range
/// space of `geometry` (n and m are CHECKed). Points are memory-resident
/// (charged 2n words per guess). After a failed scan — a fired cancel
/// token included — no further round runs and the result is
/// unsuccessful; scheduler.stream_failed() says so.
GeomStreamingResult AlgGeomSC(PassScheduler& scheduler,
                              const GeomDataset& geometry,
                              const GeomSetCoverOptions& options);

/// Single guess k (tests / ablations), driven to completion on
/// `scheduler`.
GeomStreamingResult AlgGeomSCSingleGuess(PassScheduler& scheduler,
                                         const GeomDataset& geometry,
                                         uint64_t k,
                                         const GeomSetCoverOptions& options);

}  // namespace streamcover

#endif  // STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_
