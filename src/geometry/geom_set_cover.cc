#include "geometry/geom_set_cover.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "geometry/canonical.h"
#include "offline/greedy.h"
#include "stream/sampling.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/mathutil.h"
#include "util/rng.h"

namespace streamcover {
namespace {

// Is `subset` (sorted) a subset of `superset` (sorted)?
bool IsSubsetSorted(const std::vector<uint32_t>& subset,
                    std::span<const uint32_t> superset) {
  size_t j = 0;
  for (uint32_t v : subset) {
    while (j < superset.size() && superset[j] < v) ++j;
    if (j == superset.size() || superset[j] != v) return false;
    ++j;
  }
  return true;
}

// `trace_cache` is a simulator-side cache of each shape's trace on the
// full point set, materialized during the first scan so later logical
// passes cost O(sum of trace sizes) instead of O(n*m) containment tests.
// It is NOT charged to the algorithm's space: the algorithm only reads
// it sequentially, exactly as it would re-test containment against the
// streamed shape.
GeomStreamingResult RunGuess(
    ShapeStream& stream, const std::vector<Point>& points, uint64_t k,
    const GeomSetCoverOptions& options, const OfflineSolver& offline,
    SpaceTracker& tracker, Rng& rng,
    std::vector<std::vector<uint32_t>>& trace_cache) {
  const uint32_t n = static_cast<uint32_t>(points.size());
  const uint32_t m = stream.num_shapes();
  const double rho = offline.Rho(n);
  const uint64_t iterations =
      static_cast<uint64_t>(std::ceil(1.0 / options.delta) + 1e-9);
  const uint64_t passes_before = stream.passes();

  GeomStreamingResult result;

  // The model stores the point set in memory: 2 words per point.
  tracker.Charge(2ULL * n);

  DynamicBitset uncovered(n, true);
  tracker.Charge(uncovered.WordCount());
  Cover sol;

  // One logical pass over the shapes. The first pass materializes the
  // simulator-side trace cache (see GuessState comment) in the same
  // single scan; later passes replay it. fn(id, shape, trace). After a
  // pass that the stream's cancel token cut short, the guess drives no
  // further pass and returns unsuccessful (a cancelled stream never
  // delivers another shape, so the partial cache is never read).
  auto pass_over_traces = [&](auto&& fn) {
    if (trace_cache.empty() && m > 0) {
      trace_cache.resize(m);
      stream.ForEachShape([&](uint32_t id, const Shape& shape) {
        trace_cache[id] = TraceOf(shape, points);
        fn(id, shape, trace_cache[id]);
      });
    } else {
      stream.ForEachShape([&](uint32_t id, const Shape& shape) {
        fn(id, shape, trace_cache[id]);
      });
    }
  };

  const double heavy_threshold =
      static_cast<double>(n) / static_cast<double>(k);

  for (uint64_t iter = 0; iter < iterations; ++iter) {
    GeomIterationDiag diag;
    diag.iteration = static_cast<uint32_t>(iter + 1);
    diag.uncovered_before = uncovered.Count();

    // --- Pass 1: take every heavy range (|r ∩ L| >= |U|/k). ---
    uint64_t heavy = 0;
    pass_over_traces([&](uint32_t id, const Shape& /*shape*/,
                         const std::vector<uint32_t>& trace) {
      size_t gain = 0;
      for (uint32_t e : trace) {
        if (uncovered.Test(e)) ++gain;
      }
      if (gain > 0 && static_cast<double>(gain) >= heavy_threshold) {
        sol.set_ids.push_back(id);
        tracker.Charge(1);
        for (uint32_t e : trace) uncovered.Reset(e);
        ++heavy;
      }
    });
    if (stream.cancelled()) return GeomStreamingResult{};
    diag.heavy_picked = heavy;

    uint64_t uncovered_count = uncovered.Count();
    if (uncovered_count == 0) {
      diag.uncovered_after = 0;
      result.diagnostics.push_back(diag);
      break;
    }

    // --- Sample S ⊆ L of size c*rho*k*(n/k)^delta*log m*log n. ---
    const uint64_t sample_size =
        GeomSampleSize(options.sample_constant, rho, k, n, options.delta, m,
                       uncovered_count);
    std::vector<uint32_t> sample =
        SampleFromBitset(uncovered, sample_size, rng);
    diag.sample_size = sample.size();
    tracker.Charge(sample.size());

    // The sample as a point set (local index -> global id via `sample`).
    std::vector<Point> sample_points;
    sample_points.reserve(sample.size());
    for (uint32_t e : sample) sample_points.push_back(points[e]);
    std::unordered_map<uint32_t, uint32_t> global_to_local;
    global_to_local.reserve(sample.size() * 2);
    for (uint32_t i = 0; i < sample.size(); ++i) {
      global_to_local[sample[i]] = i;
    }

    // --- Pass 2: canonical representation of the light ranges on S. ---
    const double w = std::max(
        1.0, options.lightness_slack * static_cast<double>(sample.size()) /
                 static_cast<double>(k));
    // Reuse the trace cache: a shape's trace on S is its trace on U
    // filtered to sampled points (identical to what CompCanonicalRep
    // computes geometrically).
    RectSplitter splitter(sample_points);
    TraceStore store;
    uint64_t oversize = 0;
    pass_over_traces([&](uint32_t /*id*/, const Shape& shape,
                         const std::vector<uint32_t>& trace) {
      std::vector<uint32_t> local;
      for (uint32_t e : trace) {
        auto it = global_to_local.find(e);
        if (it != global_to_local.end()) local.push_back(it->second);
      }
      if (local.empty()) return;
      std::sort(local.begin(), local.end());
      if (static_cast<double>(local.size()) > w) {
        ++oversize;
        store.Insert(local);
        return;
      }
      // Rect ranges are split into anchored canonical pieces
      // (Lemma 4.2); disks and fat triangles are deduplicated wholesale
      // (Lemma 4.4 recipe; see canonical.h).
      if (const Rect* rect = std::get_if<Rect>(&shape)) {
        for (const auto& piece : splitter.Decompose(*rect)) {
          store.Insert(piece);
        }
      } else {
        store.Insert(local);
      }
    });
    if (stream.cancelled()) return GeomStreamingResult{};
    diag.canonical_sets = store.size();
    diag.canonical_words = store.total_words();
    diag.oversize_ranges = oversize;
    // Definition 4.1: every canonical set has O(1) description (a disk,
    // an anchored rectangle piece, a triangle) — 4 words here. Its trace
    // is recomputable on demand from the description plus the sample
    // points already in memory, so the model charges descriptions, not
    // trace lists (the trace lists above are transient solve scratch).
    const uint64_t kDescriptionWords = 4;
    tracker.Charge(kDescriptionWords * store.size());

    // --- Offline solve over (S, canonical sets). ---
    SetSystem::Builder sub_builder(static_cast<uint32_t>(sample.size()));
    for (const auto& trace : store.traces()) {
      sub_builder.AddSet(trace);
    }
    SetSystem sub = std::move(sub_builder).Build();
    OfflineResult offline_result = offline.Solve(sub);

    // Chosen canonical sets, as global point-id vectors.
    std::vector<std::vector<uint32_t>> chosen;
    for (uint32_t cid : offline_result.cover.set_ids) {
      std::vector<uint32_t> global;
      for (uint32_t local : store.Get(cid)) global.push_back(sample[local]);
      std::sort(global.begin(), global.end());
      chosen.push_back(std::move(global));
    }
    tracker.Release(kDescriptionWords * store.size());

    // --- Pass 3: replace each chosen canonical set by a superset range.
    std::vector<bool> matched(chosen.size(), false);
    size_t unmatched = chosen.size();
    pass_over_traces([&](uint32_t id, const Shape& /*shape*/,
                         const std::vector<uint32_t>& trace) {
      if (unmatched == 0) return;
      for (size_t i = 0; i < chosen.size(); ++i) {
        if (matched[i]) continue;
        if (IsSubsetSorted(chosen[i],
                           std::span<const uint32_t>(trace))) {
          matched[i] = true;
          --unmatched;
          sol.set_ids.push_back(id);
          tracker.Charge(1);
          for (uint32_t e : trace) uncovered.Reset(e);
        }
      }
    });
    if (stream.cancelled()) return GeomStreamingResult{};
    // Every canonical set is a sub-trace of some streamed range, so all
    // must match; CHECK defends the invariant.
    SC_CHECK_EQ(unmatched, 0u);

    tracker.Release(sample.size());

    diag.uncovered_after = uncovered.Count();
    result.diagnostics.push_back(diag);
    if (diag.uncovered_after == 0) break;
  }

  // --- Final pass: cover the <= k stragglers with one range each. ---
  if (uncovered.Any()) {
    pass_over_traces([&](uint32_t id, const Shape& /*shape*/,
                         const std::vector<uint32_t>& trace) {
      bool hits = false;
      for (uint32_t e : trace) {
        if (uncovered.Test(e)) {
          hits = true;
          break;
        }
      }
      if (hits) {
        sol.set_ids.push_back(id);
        tracker.Charge(1);
        for (uint32_t e : trace) uncovered.Reset(e);
      }
    });
    if (stream.cancelled()) return GeomStreamingResult{};
  }

  result.success = uncovered.None();
  tracker.Release(uncovered.WordCount());
  tracker.Release(2ULL * n);

  sol.Deduplicate();
  result.cover = std::move(sol);
  result.winning_k = k;
  result.passes = stream.passes() - passes_before;
  result.sequential_scans = result.passes;
  result.space_words_parallel = tracker.peak_words();
  result.space_words_max_guess = tracker.peak_words();
  return result;
}

}  // namespace

GeomStreamingResult AlgGeomSCSingleGuess(ShapeStream& stream,
                                         const std::vector<Point>& points,
                                         uint64_t k,
                                         const GeomSetCoverOptions& options) {
  SC_CHECK(options.delta > 0.0 && options.delta <= 1.0);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;
  SpaceTracker tracker;
  Rng rng(options.seed ^ (k * 0x9e3779b97f4a7c15ULL));
  std::vector<std::vector<uint32_t>> cache;
  return RunGuess(stream, points, k, options, offline, tracker, rng, cache);
}

GeomStreamingResult AlgGeomSC(ShapeStream& stream,
                              const std::vector<Point>& points,
                              const GeomSetCoverOptions& options) {
  SC_CHECK(options.delta > 0.0 && options.delta <= 1.0);
  GreedySolver default_solver;
  const OfflineSolver& offline =
      options.offline != nullptr ? *options.offline : default_solver;

  const uint32_t n = static_cast<uint32_t>(points.size());
  GeomStreamingResult best;
  uint64_t passes_max = 0;
  uint64_t scans_total = 0;
  uint64_t space_sum = 0;
  uint64_t space_max = 0;

  std::vector<std::vector<uint32_t>> cache;  // shared across guesses
  for (uint64_t k = 1;; k *= 2) {
    SpaceTracker tracker;
    Rng rng(options.seed ^ (k * 0x9e3779b97f4a7c15ULL));
    GeomStreamingResult guess =
        RunGuess(stream, points, k, options, offline, tracker, rng, cache);

    passes_max = std::max(passes_max, guess.passes);
    scans_total += guess.sequential_scans;
    space_sum += tracker.peak_words();
    space_max = std::max(space_max, tracker.peak_words());

    if (guess.success &&
        (!best.success || guess.cover.size() < best.cover.size())) {
      best = std::move(guess);
    }
    if (k >= n || stream.cancelled()) break;
  }

  best.passes = passes_max;
  best.sequential_scans = scans_total;
  best.space_words_parallel = space_sum;
  best.space_words_max_guess = space_max;
  return best;
}

}  // namespace streamcover
