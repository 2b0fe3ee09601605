// Bridges between the geometric world and the abstract SetSystem world,
// plus the sequential shape stream (the geometric analogue of SetStream).

#ifndef STREAMCOVER_GEOMETRY_RANGE_SPACE_H_
#define STREAMCOVER_GEOMETRY_RANGE_SPACE_H_

#include <cstdint>
#include <vector>

#include "geometry/primitives.h"
#include "setsystem/set_system.h"
#include "stream/set_source.h"
#include "util/cancel_token.h"

namespace streamcover {

/// Materializes the range space (points, shapes) as an abstract
/// SetSystem: set i = trace of shape i. O(n m) time/space — used by
/// offline comparators and tests, never by the streaming algorithm.
SetSystem BuildRangeSpace(const std::vector<Point>& points,
                          const std::vector<Shape>& shapes);

/// Sequential, pass-counted access to the shape family. The point set is
/// memory-resident (the model grants O~(n)); the shapes are stream-only.
class ShapeStream {
 public:
  /// Does not take ownership; `shapes` must outlive the stream.
  explicit ShapeStream(const std::vector<Shape>* shapes);

  uint32_t num_shapes() const {
    return static_cast<uint32_t>(shapes_->size());
  }

  /// Arms (or disarms, with nullptr) cooperative cancellation: each pass
  /// polls `cancel` every kCancelStride shapes, and once it fires the
  /// stream fails stickily, like a SetSource. Must outlive the passes.
  void set_cancel(const CancelToken* cancel) { cancel_ = cancel; }

  /// One pass: fn(shape_id, shape) in stream order. A pass that finds
  /// the stream cancelled stops delivering shapes; every later pass
  /// delivers none.
  template <typename Fn>
  void ForEachShape(Fn&& fn) {
    ++passes_;
    for (uint32_t i = 0; i < shapes_->size(); ++i) {
      if (i % kCancelStride == 0 && cancel_ != nullptr &&
          cancel_->cancelled()) {
        cancelled_ = true;
      }
      if (cancelled_) return;
      fn(i, (*shapes_)[i]);
    }
  }

  /// True once a pass was cancelled (sticky).
  bool cancelled() const { return cancelled_; }

  uint64_t passes() const { return passes_; }

 private:
  const std::vector<Shape>* shapes_;
  const CancelToken* cancel_ = nullptr;
  bool cancelled_ = false;
  uint64_t passes_ = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_GEOMETRY_RANGE_SPACE_H_
