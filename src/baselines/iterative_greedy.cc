#include "baselines/iterative_greedy.h"

#include <vector>

#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"

namespace streamcover {

BaselineResult IterativeGreedy(SetStream& stream) {
  SpaceTracker tracker;
  const uint64_t passes_before = stream.passes();
  const uint32_t n = stream.num_elements();

  LiveMask uncovered(n, true);
  tracker.Charge(uncovered.WordCount());

  // Restrict to coverable elements with one initial pass (also the first
  // greedy-selection pass: we fold both uses into every pass below by
  // clearing uncoverable bits lazily — an element in no set simply never
  // contributes to any gain; detect termination via best_gain == 0).
  BaselineResult result;
  while (uncovered.Any()) {
    uint32_t best_id = 0;
    size_t best_gain = 0;
    std::vector<uint32_t> best_elems;  // residual elements of best set
    stream.ForEachSet([&](const SetView& set) {
      const size_t gain = CountUncovered(set, uncovered);
      if (gain > best_gain) {
        best_gain = gain;
        best_id = set.id;
        best_elems.clear();
        FilterInto(set, uncovered, best_elems);
      }
    });
    // Peak charge for the retained best-candidate buffer this pass.
    tracker.Charge(best_elems.size());
    tracker.Release(best_elems.size());
    if (best_gain == 0) break;  // remaining elements are uncoverable
    result.cover.set_ids.push_back(best_id);
    tracker.Charge(1);
    for (uint32_t e : best_elems) uncovered.Reset(e);
  }

  result.success = uncovered.None();
  result.passes = stream.passes() - passes_before;
  result.space_words = tracker.peak_words();
  return result;
}

}  // namespace streamcover
