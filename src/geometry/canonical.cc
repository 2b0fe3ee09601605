#include "geometry/canonical.h"

#include <algorithm>

#include "util/check.h"

namespace streamcover {
namespace {

// FNV-1a over the id vector; collisions resolved by exact compare below.
uint64_t HashTrace(const std::vector<uint32_t>& trace) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t v : trace) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::pair<uint32_t, bool> TraceStore::Insert(
    const std::vector<uint32_t>& trace) {
  SC_DCHECK(std::is_sorted(trace.begin(), trace.end()));
  uint64_t h = HashTrace(trace);
  // Open chaining on the hash value: probe successive keys on collision.
  while (true) {
    auto it = by_hash_.find(h);
    if (it == by_hash_.end()) break;
    if (traces_[it->second] == trace) return {it->second, false};
    ++h;  // collision: different trace, same key — probe next slot
  }
  const auto id = static_cast<uint32_t>(traces_.size());
  by_hash_.emplace(h, id);
  traces_.push_back(trace);
  total_words_ += trace.size();
  return {id, true};
}

const std::vector<uint32_t>& TraceStore::Get(uint32_t id) const {
  SC_CHECK_LT(id, traces_.size());
  return traces_[id];
}

RectSplitter::RectSplitter(const std::vector<Point>& points)
    : points_(&points) {
  by_rank_.resize(points.size());
  for (uint32_t i = 0; i < points.size(); ++i) by_rank_[i] = i;
  std::sort(by_rank_.begin(), by_rank_.end(), [&](uint32_t a, uint32_t b) {
    const Point& pa = points[a];
    const Point& pb = points[b];
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < b;
  });
}

std::vector<std::vector<uint32_t>> RectSplitter::Decompose(
    const Rect& rect) const {
  const auto& pts = *points_;
  const uint32_t n = static_cast<uint32_t>(by_rank_.size());
  if (n == 0) return {};

  // Rank interval [lo, hi) of points with x in [x_min, x_max]. Points
  // with equal x are contiguous in rank order, so the interval captures
  // exactly the x-eligible points.
  uint32_t lo = static_cast<uint32_t>(
      std::lower_bound(by_rank_.begin(), by_rank_.end(), rect.x_min,
                       [&](uint32_t id, double x) { return pts[id].x < x; }) -
      by_rank_.begin());
  uint32_t hi = static_cast<uint32_t>(
      std::upper_bound(by_rank_.begin(), by_rank_.end(), rect.x_max,
                       [&](double x, uint32_t id) { return x < pts[id].x; }) -
      by_rank_.begin());
  if (lo >= hi) return {};

  auto collect = [&](uint32_t rank_lo, uint32_t rank_hi) {
    std::vector<uint32_t> trace;
    for (uint32_t r = rank_lo; r < rank_hi; ++r) {
      uint32_t id = by_rank_[r];
      const Point& p = pts[id];
      if (p.y >= rect.y_min && p.y <= rect.y_max) trace.push_back(id);
    }
    std::sort(trace.begin(), trace.end());
    return trace;
  };

  // Find the highest canonical boundary (implicit balanced binary
  // division of [0, n)) strictly inside [lo, hi).
  uint32_t s = 0, e = n;
  while (e - s > 1) {
    uint32_t mid = s + (e - s) / 2;
    if (hi <= mid) {
      e = mid;
    } else if (lo >= mid) {
      s = mid;
    } else {
      // Split: anchored pieces [lo, mid) and [mid, hi).
      std::vector<std::vector<uint32_t>> pieces;
      auto left = collect(lo, mid);
      auto right = collect(mid, hi);
      if (!left.empty()) pieces.push_back(std::move(left));
      if (!right.empty()) pieces.push_back(std::move(right));
      return pieces;
    }
  }
  // Interval of width 1: a single anchored piece.
  auto only = collect(lo, hi);
  if (only.empty()) return {};
  return {std::move(only)};
}

CanonicalRepBuilder::CanonicalRepBuilder(
    const std::vector<Point>& sample_points, double w)
    : splitter_(sample_points), w_(w) {}

void CanonicalRepBuilder::Add(const Shape& shape,
                              const std::vector<uint32_t>& trace_on_sample) {
  if (trace_on_sample.empty()) return;
  if (static_cast<double>(trace_on_sample.size()) > w_) {
    ++oversize_ranges_;
    store_.Insert(trace_on_sample);
    return;
  }
  if (const Rect* rect = std::get_if<Rect>(&shape)) {
    for (const auto& piece : splitter_.Decompose(*rect)) {
      store_.Insert(piece);
    }
  } else {
    store_.Insert(trace_on_sample);
  }
}

}  // namespace streamcover
