#include "baselines/streaming_max_cover.h"

#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/cover_kernels.h"

namespace streamcover {

StreamingMaxCoverResult StreamingMaxCover(SetStream& stream,
                                          uint32_t budget) {
  SC_CHECK_GE(budget, 1u);
  SpaceTracker tracker;
  const uint64_t passes_before = stream.passes();
  const uint32_t n = stream.num_elements();

  LiveMask uncovered(n, true);
  tracker.Charge(uncovered.WordCount());

  StreamingMaxCoverResult result;
  for (double threshold = static_cast<double>(n) / 2.0;;
       threshold /= 2.0) {
    if (threshold < 1.0) threshold = 1.0;
    stream.ForEachSet([&](const SetView& set) {
      if (result.cover.size() >= budget) return;
      // gain <= |S|: a set below the threshold cannot be taken.
      if (static_cast<double>(set.size()) < threshold) return;
      const size_t gain = CountUncovered(set, uncovered);
      if (gain > 0 && static_cast<double>(gain) >= threshold) {
        result.cover.set_ids.push_back(set.id);
        tracker.Charge(1);
        result.covered += gain;
        MarkCovered(set, uncovered);
      }
    });
    if (result.cover.size() >= budget) break;
    if (!uncovered.Any()) break;
    if (threshold == 1.0) break;
  }

  result.passes = stream.passes() - passes_before;
  result.space_words = tracker.peak_words();
  return result;
}

}  // namespace streamcover
