// Streaming Max k-Cover, [SG09]-style: thresholded greedy under a set
// budget. Pass i uses threshold n / 2^i; any streamed set whose marginal
// coverage clears the threshold is taken until the budget is exhausted.
// O(log n) passes, O~(n) space, constant-factor coverage (the classic
// thresholding loss over greedy's 1 - 1/e). A set's gain is at most its
// size, so a set smaller than the pass threshold is skipped before any
// kernel runs.

#ifndef STREAMCOVER_BASELINES_STREAMING_MAX_COVER_H_
#define STREAMCOVER_BASELINES_STREAMING_MAX_COVER_H_

#include <cstdint>

#include "baselines/baseline_result.h"
#include "stream/set_stream.h"

namespace streamcover {

/// Result of a streaming budgeted coverage maximization.
struct StreamingMaxCoverResult {
  Cover cover;
  uint64_t covered = 0;
  uint64_t passes = 0;
  uint64_t space_words = 0;
};

/// Runs at most `budget` picks over halving thresholds; stops when the
/// budget is used, coverage is complete, or the threshold reaches 1.
StreamingMaxCoverResult StreamingMaxCover(SetStream& stream,
                                          uint32_t budget);

}  // namespace streamcover

#endif  // STREAMCOVER_BASELINES_STREAMING_MAX_COVER_H_
