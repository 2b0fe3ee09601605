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
//    (CompCanonicalRep), never as raw projections — the number of
//    distinct canonical sets is near-linear in |S| even when the stream
//    carries quadratically many distinct shallow ranges (Figure 1.2);
//  * a third pass maps each chosen canonical set back to a concrete
//    superset range from the stream.

#ifndef STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_
#define STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "geometry/range_space.h"
#include "offline/solver.h"
#include "setsystem/cover.h"

namespace streamcover {

/// Tuning knobs for AlgGeomSC; defaults follow Figure 4.1 / Theorem 4.6
/// (delta = 1/4 gives constant passes).
struct GeomSetCoverOptions {
  double delta = 0.25;
  double sample_constant = 0.5;
  /// Offline solver for the sampled canonical sub-instance; null =>
  /// greedy.
  const OfflineSolver* offline = nullptr;
  uint64_t seed = 1;
  /// Lightness slack: traces larger than slack * |S| / k are treated as
  /// oversize in CompCanonicalRep (Lemma 4.5 uses 3).
  double lightness_slack = 3.0;
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
  Cover cover;  ///< ids into the shape stream
  bool success = false;
  uint64_t passes = 0;                ///< per-guess max (parallel guesses)
  uint64_t sequential_scans = 0;      ///< total scans actually performed
  uint64_t space_words_parallel = 0;  ///< sum of per-guess peaks
  uint64_t space_words_max_guess = 0;
  uint64_t winning_k = 0;
  std::vector<GeomIterationDiag> diagnostics;
};

/// Runs algGeomSC on (points, shape stream). Points are memory-resident
/// (charged 2n words); shapes are visited only through passes. Once the
/// stream is cancelled (ShapeStream::set_cancel) no further pass runs
/// and the result is unsuccessful; check stream.cancelled().
GeomStreamingResult AlgGeomSC(ShapeStream& stream,
                              const std::vector<Point>& points,
                              const GeomSetCoverOptions& options);

/// Single guess k (tests / ablations).
GeomStreamingResult AlgGeomSCSingleGuess(ShapeStream& stream,
                                         const std::vector<Point>& points,
                                         uint64_t k,
                                         const GeomSetCoverOptions& options);

}  // namespace streamcover

#endif  // STREAMCOVER_GEOMETRY_GEOM_SET_COVER_H_
