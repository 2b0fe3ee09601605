// The bridge between the geometric world and the abstract SetSystem
// world: the range space of a points/shapes instance, which is the
// repository every solver streams on it, algGeomSC included. Set i is
// the trace of shape i — what re-testing containment against the
// streamed shape computes; algGeomSC reads the shape itself by id.

#ifndef STREAMCOVER_GEOMETRY_RANGE_SPACE_H_
#define STREAMCOVER_GEOMETRY_RANGE_SPACE_H_

#include <vector>

#include "geometry/primitives.h"
#include "setsystem/set_system.h"

namespace streamcover {

/// Materializes the range space (points, shapes) as an abstract
/// SetSystem: set i = trace of shape i. O(n m) time, paid once per
/// Instance outside every solver's run; storing it is the repository's
/// cost, never a streaming algorithm's.
SetSystem BuildRangeSpace(const std::vector<Point>& points,
                          const std::vector<Shape>& shapes);

}  // namespace streamcover

#endif  // STREAMCOVER_GEOMETRY_RANGE_SPACE_H_
