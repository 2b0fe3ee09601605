#include "core/solver_registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "baselines/dimv14.h"
#include "baselines/iterative_greedy.h"
#include "baselines/threshold_greedy.h"
#include "core/instance.h"
#include "core/iter_set_cover.h"
#include "geometry/geom_set_cover.h"
#include "offline/exact.h"
#include "offline/greedy.h"
#include "shard/sharded_greedi.h"
#include "stream/space_tracker.h"
#include "util/timer.h"

namespace streamcover {
namespace {

RunResult FromBaseline(BaselineResult r) {
  RunResult result;
  result.cover = std::move(r.cover);
  result.success = r.success;
  result.passes = r.passes;
  // Single-instruction-stream baselines leave physical_scans at 0
  // ("same as passes"); scheduler-driven ones fill it.
  result.sequential_scans = r.passes;
  result.physical_scans = r.physical_scans > 0 ? r.physical_scans : r.passes;
  result.space_words = r.space_words;
  result.gain_updates = r.gain_updates;
  result.sets_touched = r.sets_touched;
  return result;
}

uint64_t PeakProjectionWords(const StreamingResult& r) {
  uint64_t peak = 0;
  for (const auto& diag : r.diagnostics) {
    peak = std::max(peak, diag.projection_words);
  }
  return peak;
}

RunResult RunIterSetCover(RunContext& ctx) {
  IterSetCoverOptions opts;
  opts.delta = ctx.options.delta;
  opts.sample_constant = ctx.options.sample_constant;
  opts.offline = ctx.options.offline;
  opts.seed = ctx.options.seed;
  opts.coverage_fraction = ctx.options.coverage_fraction;
  StreamingResult r =
      ctx.options.iter_guess > 0
          ? IterSetCoverSingleGuess(ctx.scheduler, ctx.options.iter_guess,
                                    opts)
          : IterSetCover(ctx.scheduler, opts);
  RunResult result;
  result.cover = std::move(r.cover);
  result.success = r.success;
  result.passes = r.passes;
  result.sequential_scans = r.sequential_scans;
  result.physical_scans = r.physical_scans;
  result.space_words = r.space_words_max_guess;
  result.projection_words_peak = PeakProjectionWords(r);
  result.gain_updates = r.gain_updates;
  result.sets_touched = r.sets_touched;
  return result;
}

RunResult RunDimv14(RunContext& ctx) {
  Dimv14Options opts;
  opts.delta = ctx.options.delta;
  opts.sample_constant = ctx.options.sample_constant;
  opts.offline = ctx.options.offline;
  opts.seed = ctx.options.seed;
  return FromBaseline(Dimv14Cover(ctx.scheduler, opts));
}

/// Store-all wrapper turning any OfflineSolver into a one-pass
/// streaming run: buffer F (Θ(total_size) words), solve in memory.
RunResult RunOffline(RunContext& ctx, const OfflineSolver& solver) {
  SpaceTracker tracker;
  SetStream& stream = ctx.stream;
  const uint64_t passes_before = stream.passes();
  SetSystem::Builder builder(stream.num_elements());
  stream.ForEachSet([&](const SetView& set) {
    tracker.Charge(set.size() + 1);
    builder.AddSet(set.elems);
  });
  SetSystem buffered = std::move(builder).Build();
  OfflineResult offline = solver.Solve(buffered);
  tracker.Charge(offline.cover.size());

  RunResult result;
  result.cover = std::move(offline.cover);
  result.success = IsFullCover(buffered, result.cover);
  result.passes = stream.passes() - passes_before;
  result.sequential_scans = result.passes;
  result.physical_scans = result.passes;
  result.space_words = tracker.peak_words();
  result.gain_updates = offline.gain_updates;
  result.sets_touched = offline.sets_touched;
  return result;
}

RunResult RunStoreAllGreedy(RunContext& ctx) {
  return RunOffline(ctx, GreedySolver());
}

RunResult RunGeometric(RunContext& ctx) {
  RunResult result;
  if (ctx.geometry == nullptr) {
    result.error =
        "solver 'geom' needs an instance with a points + shapes payload; "
        "the abstract stream carries no coordinates";
    return result;
  }
  GeomSetCoverOptions opts;
  opts.delta = ctx.options.delta;
  opts.sample_constant = ctx.options.sample_constant;
  opts.offline = ctx.options.offline;
  opts.seed = ctx.options.seed;
  GeomStreamingResult r =
      ctx.options.iter_guess > 0
          ? AlgGeomSCSingleGuess(ctx.scheduler, *ctx.geometry,
                                 ctx.options.iter_guess, opts)
          : AlgGeomSC(ctx.scheduler, *ctx.geometry, opts);
  result.cover = std::move(r.cover);
  result.success = r.success;
  result.passes = r.passes;
  result.sequential_scans = r.sequential_scans;
  result.physical_scans = r.physical_scans;
  result.space_words = r.space_words_max_guess;
  return result;
}

void RegisterBuiltins(SolverRegistry& registry) {
  using Kind = SolverRegistry::Kind;
  auto add = [&](const char* name, const char* description, Kind kind,
                 SolverRegistry::Runner run) {
    registry.Register({name, description, kind, std::move(run)});
  };

  add("iter",
      "iterSetCover (Thm 2.8): 2/delta passes, O~(m n^delta) space, "
      "O(rho/delta) approx",
      Kind::kStreaming, RunIterSetCover);
  // Figure 1.1's store-all row is offline_greedy under its streaming
  // name: the same runner, kept because reports and specs use both.
  add("store_all_greedy",
      "greedy, store-all: 1 pass, O(mn) space, ln n approx",
      Kind::kStreaming, RunStoreAllGreedy);
  add("iterative_greedy",
      "greedy, pass-per-pick: n passes, O(n) space, ln n approx",
      Kind::kStreaming,
      [](RunContext& ctx) {
        return FromBaseline(IterativeGreedy(ctx.stream));
      });
  add("progressive_greedy",
      "[SG09] halving thresholds: O(log n) passes, O~(n) space",
      Kind::kStreaming,
      [](RunContext& ctx) {
        return FromBaseline(
            ProgressiveGreedy(ctx.stream, ctx.options.coverage_fraction));
      });
  add("threshold_greedy",
      "[ER14]/[CW16] p-pass thresholds: (p+1) n^{1/(p+1)} approx, "
      "O~(n) space",
      Kind::kStreaming,
      [](RunContext& ctx) {
        if (ctx.options.threshold_passes < 1) {
          RunResult result;
          result.error = "threshold_passes must be >= 1, got 0";
          return result;
        }
        return FromBaseline(PolynomialThresholdCover(
            ctx.scheduler, ctx.options.threshold_passes,
            ctx.options.coverage_fraction));
      });
  add("dimv14",
      "[DIMV14] recursive sampling: O(4^{1/delta}) passes, "
      "O~(m n^delta) space",
      Kind::kStreaming, RunDimv14);
  // Max k-Cover is progressive_greedy under a pick budget, read as a
  // full-cover target whatever --coverage says.
  add("streaming_max_cover",
      "[SG09]-style Max k-Cover: thresholded picks under a set budget",
      Kind::kStreaming,
      [](RunContext& ctx) {
        const uint32_t budget = ctx.options.max_cover_budget > 0
                                    ? ctx.options.max_cover_budget
                                    : ctx.stream.num_elements();
        return FromBaseline(ProgressiveGreedy(ctx.stream, 1.0, budget));
      });
  add("greedi",
      "distributed-greedy reference: 1 pass, geometric gain buckets + "
      "greedy merge (sharded_greedi with one unpartitioned shard)",
      Kind::kStreaming, RunGreediReference);
  add("sharded_greedi",
      "RandGreeDI-style sharded solve: hash-partition into S substreams "
      "on one shared scan, bucket candidates per shard, greedy merge",
      Kind::kStreaming, RunShardedGreedi);
  add("offline_greedy",
      "offline greedy via store-all buffering: rho = ln n",
      Kind::kOffline, RunStoreAllGreedy);
  add("offline_exact",
      "offline branch-and-bound via store-all buffering: rho = 1 "
      "within node budget",
      Kind::kOffline,
      [](RunContext& ctx) {
        // The search polls the run's deadline; a fired token stops it
        // and the dispatcher answers deadline_exceeded.
        return RunOffline(ctx, ExactSolver(ExactSolver::kDefaultMaxNodes,
                                           ctx.options.cancel));
      });
  add("geom",
      "algGeomSC (Thm 4.6): O(1) passes, O~(n) space for "
      "disks/rects/fat triangles; needs an instance with geometry",
      Kind::kGeometric, RunGeometric);
}

std::string UnknownSolverError(std::string_view name) {
  std::string error =
      "unknown solver '" + std::string(name) + "'; available: ";
  bool first = true;
  for (const std::string& known : SolverRegistry::Global().Names()) {
    if (!first) error += ", ";
    error += known;
    first = false;
  }
  return error;
}

}  // namespace

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

bool SolverRegistry::Register(Entry entry) {
  if (entry.name.empty() || !entry.run) return false;
  return entries_.emplace(entry.name, std::move(entry)).second;
}

const SolverRegistry::Entry* SolverRegistry::Find(
    std::string_view name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::vector<const SolverRegistry::Entry*> SolverRegistry::Entries() const {
  std::vector<const Entry*> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) entries.push_back(&entry);
  return entries;
}

namespace {

/// Shared dispatch body behind RunSolver / RunSolverShared; the two
/// differ only in where the stream comes from (`make_stream`), so every
/// validation, accounting, and failure-mapping rule below is guaranteed
/// identical between the batch CLI and the serving layer.
RunResult DispatchSolver(
    std::string_view name, const Instance& instance,
    const RunOptions& options,
    const std::function<std::optional<SetStream>(std::string*)>&
        make_stream) {
  const SolverRegistry::Entry* entry = SolverRegistry::Global().Find(name);
  if (entry == nullptr) {
    RunResult result;
    result.error = UnknownSolverError(name);
    return result;
  }
  // Guard the shared partial-coverage knob here, at the one dispatch
  // point every solver passes through: a fraction outside (0, 1] would
  // underflow AllowedUncovered's unsigned arithmetic into a huge
  // allowed-uncovered count (see util/mathutil.h) — reject it before
  // any solver runs.
  if (!(options.coverage_fraction > 0.0 &&
        options.coverage_fraction <= 1.0)) {
    RunResult result;
    result.error = "coverage_fraction must be in (0, 1], got " +
                   std::to_string(options.coverage_fraction);
    return result;
  }
  // Likewise delta: iter, dimv14 and geom CHECK it is in (0, 1] and
  // cast ceil(1/delta) to their 64-bit iteration counter, which a tiny
  // delta overflows.
  if (!(options.delta > 0.0 && options.delta <= 1.0) ||
      !(std::ceil(1.0 / options.delta) < 0x1p64)) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", options.delta);
    RunResult result;
    result.error = std::string("delta must be in (0, 1] with ceil(1/delta) "
                               "< 2^64, got ") +
                   got;
    return result;
  }
  if (entry->kind == SolverRegistry::Kind::kGeometric &&
      !instance.has_geometry()) {
    RunResult result;
    result.error = "solver '" + entry->name +
                   "' is geometric but instance '" + instance.name() +
                   "' carries no points/shapes payload";
    return result;
  }
  std::string stream_error;
  std::optional<SetStream> stream = make_stream(&stream_error);
  if (!stream.has_value()) {
    RunResult result;
    result.error = "cannot stream instance '" + instance.name() +
                   "': " + stream_error;
    return result;
  }
  WallTimer timer;
  stream->set_cancel(options.cancel);
  stream->set_scan_threads(options.scan_threads);
  PassScheduler scheduler(*stream, options.threads);
  RunContext ctx{*stream, scheduler, instance.geometry(), options};
  RunResult result = entry->run(ctx);
  // A repository failure mid-run (file truncated or corrupted under the
  // solver) leaves the stream with a sticky error; whatever partial
  // result the solver produced is meaningless, so report the fault. A
  // fired deadline takes the same unwind path but keeps its bare error
  // code — dispatchers and serve clients match on it. A token that
  // fired after the last scan (during pass-end or in-memory work) fails
  // the run the same way: the caller's budget is spent either way.
  const bool cancelled =
      options.cancel != nullptr && options.cancel->cancelled();
  if (!stream->error().empty() || cancelled) {
    RunResult failed;
    failed.solver = entry->name;
    failed.instance = instance.name();
    failed.error = stream->error().empty() ||
                           stream->error() == kDeadlineExceededError
                       ? std::string(kDeadlineExceededError)
                       : "stream failed during solve: " + stream->error();
    failed.duration_ms = timer.ElapsedMillis();
    return failed;
  }
  if (result.ok()) {
    result.solver = entry->name;
    result.instance = instance.name();
  }
  result.duration_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace

RunResult RunSolver(std::string_view name, Instance& instance,
                    const RunOptions& options) {
  return DispatchSolver(
      name, instance, options,
      [&instance](std::string*) -> std::optional<SetStream> {
        return instance.NewStream();
      });
}

RunResult RunSolverShared(std::string_view name, const Instance& instance,
                          const RunOptions& options) {
  return DispatchSolver(
      name, instance, options,
      [&instance](std::string* error) -> std::optional<SetStream> {
        return instance.NewConcurrentStream(error);
      });
}

}  // namespace streamcover
