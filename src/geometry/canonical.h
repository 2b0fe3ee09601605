// Canonical representations of shallow geometric ranges
// (Definition 4.1, Lemmas 4.2-4.4; EHR12 / AES10).
//
// The streaming algorithm cannot afford to store one projection per
// distinct shallow range: Figure 1.2 exhibits point sets with Theta(n^2)
// distinct 2-point rectangles. The fix is canonicalization:
//
// * Rectangles (Lemma 4.2): a balanced hierarchy of vertical split
//   boundaries over the x-ranks of the point set. Any query rectangle's
//   rank interval is cut at its highest crossing boundary into two
//   *anchored* pieces; anchored pieces with <= w points, snapped to the
//   points they contain, form a family of size O(n w^2 log n). Our
//   `RectSplitter` performs the split; `TraceStore` deduplicates the
//   snapped pieces, realizing the bound constructively.
//
// * Disks (Lemma 4.4): keep a maximal family with pairwise-distinct
//   traces — the paper's own recipe; Clarkson–Shor bounds the number of
//   distinct <= w-point disk traces by O(n w^2).
//
// * Fat triangles: the paper invokes EHR12 Theorem 5.6 (nine canonical
//   pieces, O(n w^3 log^2 n)). We substitute distinct-trace dedup (the
//   disk recipe) and *measure* the realized family size
//   (GeomIterationDiag::canonical_sets) instead of assuming it.
//
// `CanonicalRepBuilder` applies these rules one range at a time: the
// body of compCanonicalRep (Figure 4.1), fed by algGeomSC's pass.

#ifndef STREAMCOVER_GEOMETRY_CANONICAL_H_
#define STREAMCOVER_GEOMETRY_CANONICAL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geometry/primitives.h"

namespace streamcover {

/// Deduplicating store of traces (sorted point-id vectors).
class TraceStore {
 public:
  /// Inserts `trace` (must be sorted ascending) if unseen.
  /// Returns {id, inserted}: the id of the stored copy either way.
  std::pair<uint32_t, bool> Insert(const std::vector<uint32_t>& trace);

  const std::vector<uint32_t>& Get(uint32_t id) const;

  size_t size() const { return traces_.size(); }

  /// Total stored words (sum of trace lengths) for space accounting.
  uint64_t total_words() const { return total_words_; }

  const std::vector<std::vector<uint32_t>>& traces() const {
    return traces_;
  }

 private:
  std::vector<std::vector<uint32_t>> traces_;
  /// Probed hash key -> index into traces_.
  std::unordered_map<uint64_t, uint32_t> by_hash_;
  uint64_t total_words_ = 0;
};

/// Anchored-split decomposition for axis-parallel rectangles
/// (Lemma 4.2) over a fixed point set.
class RectSplitter {
 public:
  explicit RectSplitter(const std::vector<Point>& points);

  /// Splits the trace of `rect` at the highest canonical boundary
  /// crossing its x-rank interval. Returns 1 or 2 traces (point ids,
  /// ascending) whose disjoint union is exactly TraceOf(rect, points);
  /// empty result iff the rectangle contains no points.
  std::vector<std::vector<uint32_t>> Decompose(const Rect& rect) const;

 private:
  const std::vector<Point>* points_;
  std::vector<uint32_t> by_rank_;  // ids sorted by (x, y, id)
};

/// The canonical representation of the light ranges on a sample point
/// set (compCanonicalRep in Figure 4.1), built one range at a time.
class CanonicalRepBuilder {
 public:
  /// `sample_points` must outlive the builder; `w` is the lightness
  /// bound (traces with more than w points are oversize).
  CanonicalRepBuilder(const std::vector<Point>& sample_points, double w);

  /// Adds one range given its trace on the sample, TraceOf(shape,
  /// sample_points). Empty traces are skipped; light ones canonicalized
  /// (rect split pieces / distinct-trace dedup); oversize ones — whp
  /// none, Lemma 4.5 — stored wholesale, so coverage is never lost.
  void Add(const Shape& shape, const std::vector<uint32_t>& trace_on_sample);

  /// Deduplicated canonical traces, as indices into the sample.
  const TraceStore& store() const { return store_; }
  uint64_t oversize_ranges() const { return oversize_ranges_; }

 private:
  RectSplitter splitter_;
  TraceStore store_;
  double w_;
  uint64_t oversize_ranges_ = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_GEOMETRY_CANONICAL_H_
