#include "geometry/range_space.h"

namespace streamcover {

SetSystem BuildRangeSpace(const std::vector<Point>& points,
                          const std::vector<Shape>& shapes) {
  SetSystem::Builder builder(static_cast<uint32_t>(points.size()));
  for (const Shape& shape : shapes) {
    builder.AddSet(TraceOf(shape, points));
  }
  return std::move(builder).Build();
}

}  // namespace streamcover
