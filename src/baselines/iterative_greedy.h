// Figure 1.1 row "Greedy, n passes, O(n) space": the exact greedy
// algorithm executed with one pass per pick. During a pass the algorithm
// tracks the best set seen so far (id + its residual elements, <= n
// words); after the pass it commits that set and repeats until U is
// covered. Same ln n approximation as offline greedy, pass count equal
// to the greedy cover size.

#ifndef STREAMCOVER_BASELINES_ITERATIVE_GREEDY_H_
#define STREAMCOVER_BASELINES_ITERATIVE_GREEDY_H_

#include "baselines/baseline_result.h"
#include "stream/set_stream.h"

namespace streamcover {

/// Greedy with one pass per picked set; O(n) working memory.
BaselineResult IterativeGreedy(SetStream& stream);

}  // namespace streamcover

#endif  // STREAMCOVER_BASELINES_ITERATIVE_GREEDY_H_
