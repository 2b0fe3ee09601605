// CoverageDeltaListener — the push side of output-sensitive gain
// maintenance.
//
// Consumers that cover elements (the threshold sieve, greedy pick
// loops, bucket engines) publish the elements they newly covered;
// trackers (setsystem/transposed_index.h's GainTracker) subscribe and
// decrement exactly the affected sets' residual gains instead of every
// consumer rescanning its whole candidate buffer. PassScheduler carries
// the registration list (AddDeltaListener / PublishCoverageDelta) so a
// solver can wire any tracker to any publishing consumer without the
// two knowing each other.

#ifndef STREAMCOVER_UTIL_COVERAGE_DELTA_H_
#define STREAMCOVER_UTIL_COVERAGE_DELTA_H_

#include <cstdint>
#include <span>

namespace streamcover {

/// Receives batches of newly covered elements. A publisher must report
/// each element at most once over the publisher's lifetime (elements
/// are covered once). Batches arrive from publishers' OnPassEnd, which
/// PassScheduler may run on any of its workers, but one at a time: the
/// scheduler serializes publication, so a listener needs no lock of
/// its own.
class CoverageDeltaListener {
 public:
  virtual ~CoverageDeltaListener() = default;
  virtual void OnCoverageDelta(std::span<const uint32_t> newly_covered) = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_COVERAGE_DELTA_H_
