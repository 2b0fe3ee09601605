#include "offline/exact.h"

#include <algorithm>
#include <vector>

#include "offline/greedy.h"
#include "setsystem/transposed_index.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/cover_kernels.h"

namespace streamcover {
namespace {

// Search state shared across the recursion.
struct SearchContext {
  const SetSystem* system;
  const TransposedIndex* index;  // element -> sets, ascending ids
  uint64_t max_nodes;
  const CancelToken* cancel;  // polled every 64 nodes; may be null
  uint64_t nodes = 0;
  bool budget_exhausted = false;
  std::vector<uint32_t> best;       // incumbent cover (set ids)
  std::vector<uint32_t> current;    // partial cover on the search path
  std::vector<bool> alive;          // sets not removed by dominance
};

// Lower bound #1: every set covers at most max_gain uncovered elements.
size_t CoverageLowerBound(const SetSystem& system,
                          const std::vector<bool>& alive,
                          const DynamicBitset& uncovered) {
  size_t residual = uncovered.Count();
  if (residual == 0) return 0;
  size_t max_gain = 0;
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    if (!alive[s]) continue;
    max_gain =
        std::max(max_gain, CountUncovered(system.GetSet(s), uncovered));
  }
  if (max_gain == 0) return residual;  // infeasible residual; forces prune
  return (residual + max_gain - 1) / max_gain;
}

// Lower bound #2: greedy packing of "witness" elements no two of which
// share a live set; each witness needs a distinct set in any cover.
size_t PackingLowerBound(const SetSystem& system, const TransposedIndex& index,
                         const std::vector<bool>& alive,
                         const DynamicBitset& uncovered) {
  std::vector<bool> set_blocked(system.num_sets(), false);
  size_t witnesses = 0;
  uncovered.ForEach([&](uint32_t e) {
    for (uint32_t s : index.Sets(e)) {
      if (alive[s] && set_blocked[s]) return;
    }
    ++witnesses;
    for (uint32_t s : index.Sets(e)) {
      if (alive[s]) set_blocked[s] = true;
    }
  });
  return witnesses;
}

void TakeSet(SearchContext& ctx, uint32_t set_id, DynamicBitset& uncovered,
             std::vector<uint32_t>& newly_covered) {
  ctx.current.push_back(set_id);
  FilterInto(ctx.system->GetSet(set_id), uncovered, newly_covered);
  MarkCovered(newly_covered, uncovered);
}

void UntakeSet(SearchContext& ctx, DynamicBitset& uncovered,
               const std::vector<uint32_t>& newly_covered) {
  ctx.current.pop_back();
  for (uint32_t e : newly_covered) uncovered.Set(e);
}

void Search(SearchContext& ctx, DynamicBitset& uncovered) {
  if (ctx.budget_exhausted) return;
  if (++ctx.nodes > ctx.max_nodes ||
      (ctx.cancel != nullptr && ctx.nodes % 64 == 0 &&
       ctx.cancel->cancelled())) {
    ctx.budget_exhausted = true;
    return;
  }
  if (uncovered.None()) {
    if (ctx.current.size() < ctx.best.size()) ctx.best = ctx.current;
    return;
  }
  // The residual is non-empty, so any completion uses >= 1 more set.
  if (ctx.current.size() + 1 >= ctx.best.size()) return;

  // Unit propagation: find an uncovered element with the fewest live
  // candidate sets; if zero, infeasible; if one, the set is forced.
  uint32_t branch_element = 0;
  size_t branch_degree = SIZE_MAX;
  uncovered.ForEach([&](uint32_t e) {
    size_t degree = 0;
    for (uint32_t s : ctx.index->Sets(e)) {
      if (ctx.alive[s]) ++degree;
    }
    if (degree < branch_degree) {
      branch_degree = degree;
      branch_element = e;
    }
  });
  if (branch_degree == 0) return;  // uncoverable residual element
  if (branch_degree == 1) {
    uint32_t forced = UINT32_MAX;
    for (uint32_t s : ctx.index->Sets(branch_element)) {
      if (ctx.alive[s]) forced = s;
    }
    std::vector<uint32_t> newly;
    TakeSet(ctx, forced, uncovered, newly);
    // Forced moves do not consume a decision level; recurse directly.
    Search(ctx, uncovered);
    UntakeSet(ctx, uncovered, newly);
    return;
  }

  // Bounds.
  size_t lb1 = CoverageLowerBound(*ctx.system, ctx.alive, uncovered);
  if (ctx.current.size() + lb1 >= ctx.best.size()) return;
  size_t lb2 =
      PackingLowerBound(*ctx.system, *ctx.index, ctx.alive, uncovered);
  if (ctx.current.size() + lb2 >= ctx.best.size()) return;

  // Branch over the candidate sets of the min-degree element, most
  // promising (largest residual gain) first. Standard completeness
  // argument: every cover must include one of these candidates.
  std::vector<std::pair<size_t, uint32_t>> candidates;
  for (uint32_t s : ctx.index->Sets(branch_element)) {
    if (!ctx.alive[s]) continue;
    candidates.push_back(
        {CountUncovered(ctx.system->GetSet(s), uncovered), s});
  }
  std::sort(candidates.rbegin(), candidates.rend());
  // Exclusion refinement: after exploring candidate i, forbid it in the
  // remaining branches (any cover using it was already enumerated).
  std::vector<uint32_t> disabled;
  for (auto& [gain, s] : candidates) {
    std::vector<uint32_t> newly;
    TakeSet(ctx, s, uncovered, newly);
    Search(ctx, uncovered);
    UntakeSet(ctx, uncovered, newly);
    if (ctx.budget_exhausted) break;
    ctx.alive[s] = false;
    disabled.push_back(s);
  }
  for (uint32_t s : disabled) ctx.alive[s] = true;
}

}  // namespace

ExactSolver::ExactSolver(uint64_t max_nodes, const CancelToken* cancel)
    : max_nodes_(max_nodes), cancel_(cancel) {}

OfflineResult ExactSolver::Solve(const SetSystem& system) const {
  // Greedy incumbent; also handles uncoverable elements by ignoring them.
  OfflineResult greedy = GreedySolver().Solve(system);

  // Restrict attention to coverable elements.
  DynamicBitset uncovered(system.num_elements());
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    for (uint32_t e : system.GetSet(s)) uncovered.Set(e);
  }

  TransposedIndex::Builder builder(system.num_elements());
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    builder.CountSet(system.GetSet(s));
  }
  builder.PrepareFill();
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    builder.FillSet(s, system.GetSet(s));
  }
  const TransposedIndex index = std::move(builder).Build();
  SearchContext ctx;
  ctx.system = &system;
  ctx.index = &index;
  ctx.max_nodes = max_nodes_;
  ctx.cancel = cancel_;
  ctx.best = greedy.cover.set_ids;
  if (ctx.best.empty() && uncovered.Any()) {
    // Greedy failed to cover anything coverable — cannot happen, but keep
    // the incumbent meaningful.
    ctx.best.resize(system.num_sets() + 1);
  }
  ctx.alive.assign(system.num_sets(), true);

  // Root dominance elimination: drop sets that are subsets of another
  // set (ties broken by id so exactly one of two equal sets survives).
  // Quadratic in m, so only applied on instance sizes B&B is meant for.
  if (system.num_sets() <= 4096) {
    std::vector<uint32_t> order(system.num_sets());
    for (uint32_t s = 0; s < system.num_sets(); ++s) order[s] = s;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return system.SetSize(a) > system.SetSize(b);
    });
    for (uint32_t i = 0; i < order.size(); ++i) {
      uint32_t small = order[i];
      if (system.SetSize(small) == 0) {
        ctx.alive[small] = false;
        continue;
      }
      auto small_elems = system.GetSet(small);
      for (uint32_t j = 0; j < i; ++j) {
        uint32_t big = order[j];
        if (!ctx.alive[big]) continue;
        if (system.SetSize(big) < system.SetSize(small)) continue;
        if (system.SetSize(big) == system.SetSize(small) && big >= small) {
          continue;  // equal sets: keep the smaller id
        }
        bool subset = true;
        for (uint32_t e : small_elems) {
          if (!system.Contains(big, e)) {
            subset = false;
            break;
          }
        }
        if (subset) {
          ctx.alive[small] = false;
          break;
        }
      }
    }
  }

  if (uncovered.Any()) {
    Search(ctx, uncovered);
  } else {
    ctx.best.clear();
  }

  OfflineResult result;
  result.cover.set_ids = ctx.best;
  result.proven_optimal = !ctx.budget_exhausted;
  result.work = ctx.nodes;
  return result;
}

}  // namespace streamcover
