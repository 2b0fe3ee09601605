// SolverRegistry — the single uniform entry point to every set cover
// algorithm in the library.
//
// Each algorithm (iterSetCover, the Figure 1.1 baselines, the offline
// solvers run in store-all mode, and algGeomSC) registers under a stable
// name; RunSolver(name, instance, options) dispatches to it and reports
// cover size, pass count, physical scan count, and peak space in one
// uniform RunResult. Tools, benches, and tests drive algorithms
// exclusively through this seam, so new workloads and benchmarks never
// touch individual solver call signatures.
//
// Runners receive a RunContext: the pass-counted stream, a PassScheduler
// over it (pre-sized with RunOptions::threads), and the instance's
// points/shapes payload, if any, whose range space the stream carries.
// Multi-branch solvers (the guesses of iterSetCover and algGeomSC,
// DIMV14, the threshold sieve) register
// ScanConsumers with the scheduler so one physical scan serves every
// branch; single-branch solvers may drive the stream directly.
//
// Unknown names fail cleanly: RunSolver returns a RunResult with ok()
// false and a diagnostic in `error` (no aborts, no exceptions).

#ifndef STREAMCOVER_CORE_SOLVER_REGISTRY_H_
#define STREAMCOVER_CORE_SOLVER_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/geom_io.h"
#include "offline/solver.h"
#include "setsystem/cover.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "util/cancel_token.h"
#include "util/cover_kernels.h"

namespace streamcover {

class Instance;

/// Uniform tuning knobs. Each solver reads the subset it understands and
/// ignores the rest, so one options struct can drive a whole sweep.
struct RunOptions {
  /// Trade-off parameter for iterSetCover / DIMV14 / algGeomSC.
  double delta = 0.5;
  /// Sample-size constant c in c*rho*k*n^delta*log m*log n. The library
  /// default is the Figure 1.3 constant 0.5 (asserted equal to
  /// IterSetCoverOptions / GeomSetCoverOptions in solver_registry_test);
  /// benches pass a smaller c explicitly to stay honest at laptop scale.
  double sample_constant = 0.5;
  /// Seed for every randomized solver.
  uint64_t seed = 1;
  /// epsilon-Partial Set Cover target; 1.0 = classic full cover.
  double coverage_fraction = 1.0;
  /// p for PolynomialThresholdCover ([ER14] p=1, [CW16] p>=1); 0 fails
  /// the run with a diagnostic.
  uint32_t threshold_passes = 2;
  /// Pick budget for streaming_max_cover; 0 means |U| (always enough
  /// for a full cover when one exists).
  uint32_t max_cover_budget = 0;
  /// If nonzero, iterSetCover / algGeomSC run only this single optimum
  /// guess k instead of all parallel guesses — the space-probe mode of
  /// the trade-off benches (IterSetCoverSingleGuess through the
  /// registry). 0 = normal parallel-guess run.
  uint64_t iter_guess = 0;
  /// Threads of the shared-scan PassScheduler's worker pool, at most
  /// one per live consumer and started once per run, on the first round
  /// with two live consumers: the live consumers are claimed over them
  /// per batch and again for their pass-end work (each guess's offline
  /// solve), and a pass end's greedy index build over a large store
  /// also runs on the workers left idle; <= 1 runs everything inline.
  /// Each consumer sees every batch in stream order and each pass end
  /// touches only its own state, so results are bit-identical at every
  /// thread count.
  uint32_t threads = 1;
  /// Decode threads of the binary chunk decoder
  /// (stream/pipelined_scan.h): <= 1 decodes each chunk inline on the
  /// scanning thread, larger values overlap chunk decode with dispatch
  /// on mmap-backed instances. Text and in-memory repositories ignore
  /// it. Results are bit-identical at every value.
  uint32_t scan_threads = 1;
  /// iterSetCover: retire guesses that provably cannot beat a completed
  /// winner (never changes the winning cover; shaves physical scans and
  /// makes `passes` reflect passes actually consumed).
  bool early_exit = false;
  /// Shard count for the sharded_greedi family: the stream is
  /// hash-partitioned into this many substreams, each solved by its own
  /// bucket engine on the shared scan, then merged (src/shard/). Other
  /// solvers ignore it. Must be >= 1; shards == 1 is byte-identical to
  /// the unsharded `greedi` reference.
  uint32_t shards = 1;
  /// Kept only because perfbench/ compiles against it (ROADMAP item 3):
  /// readable, not settable, and no solver reads it.
  static constexpr KernelPolicy kernel = KernelPolicy::kWord;
  /// Offline solver (algOfflineSC) for the sampling algorithms;
  /// null => greedy. With threads > 1 its Solve runs concurrently for
  /// different guesses, so it must be safe to call from several threads.
  const OfflineSolver* offline = nullptr;
  /// Cooperative cancellation for deadline-bounded serving: when set,
  /// every scan of the run's stream polls it at batch granularity and a
  /// fired token unwinds the run through the stream-failure contract,
  /// surfacing RunResult.error == kDeadlineExceededError. A token found
  /// fired when the runner returns (it fired after the last scan) fails
  /// the run the same way, and offline_exact's search polls it too.
  /// Must outlive the run. nullptr (default) = uncancellable.
  const CancelToken* cancel = nullptr;
};

/// Everything a runner needs for one dispatch. Built by
/// RunSolver(name, Instance&, options); runners never construct one.
struct RunContext {
  /// Pass-counted stream over the instance's repository (fresh per run).
  SetStream& stream;
  /// Shared-scan executor over `stream`, pre-sized with
  /// RunOptions::threads. stream.passes() counts its physical scans.
  PassScheduler& scheduler;
  /// Points/shapes payload whose range space `stream` carries (read by
  /// kGeometric solvers); nullptr for abstract instances.
  const GeomDataset* geometry = nullptr;
  const RunOptions& options;
};

/// Per-shard accounting from a sharded_greedi run (src/shard/). One row
/// per shard engine, in shard order.
struct ShardStat {
  uint32_t shard = 0;
  uint64_t sets_seen = 0;   ///< substream size the partitioner routed here
  uint64_t candidates = 0;  ///< unique candidate sets handed to the merge
  uint64_t inserts = 0;     ///< bucket acceptances (>= candidates)
  uint64_t work_items = 0;  ///< elements pushed through the bucket kernels
};

/// Merge-stage accounting from a sharded_greedi run.
struct MergeStat {
  uint64_t candidates = 0;          ///< candidate union size after dedup
  uint64_t duplicates_dropped = 0;  ///< repeated ids dropped at insertion
  uint64_t picked = 0;              ///< sets the greedy merge selected
  double duration_ms = 0;           ///< merge wall-clock (excl. the scan)
};

/// Uniform outcome: the cover plus the accounting columns of Figure 1.1.
struct RunResult {
  /// Resolved solver name (empty if dispatch failed).
  std::string solver;
  /// Name of the Instance the run executed on.
  std::string instance;
  Cover cover;
  /// True iff the solver reports a complete cover (or the requested
  /// coverage fraction) was achieved.
  bool success = false;
  /// Passes in the paper's accounting: per-guess max for parallel-guess
  /// algorithms.
  uint64_t passes = 0;
  /// Logical per-branch passes summed over all branches — what a
  /// sequential one-branch-at-a-time implementation would scan. Equals
  /// `passes` for single-branch algorithms.
  uint64_t sequential_scans = 0;
  /// Physical scans of the repository actually performed. With the
  /// shared-scan scheduler this collapses to `passes` for iterSetCover
  /// instead of the old `sequential_scans ≈ guesses × passes` blow-up.
  uint64_t physical_scans = 0;
  /// Peak retained 64-bit words.
  uint64_t space_words = 0;
  /// Peak stored-projection words across iterations (Lemma 2.2's
  /// O~(m n^delta) object). Only iterSetCover-family solvers report it;
  /// 0 elsewhere.
  uint64_t projection_words_peak = 0;
  /// Wall-clock time of the dispatched run in milliseconds (util/timer).
  /// Filled for every dispatched run, successful or not; 0 only when
  /// dispatch itself failed (unknown solver, bad options).
  double duration_ms = 0;
  /// Gain-maintenance accounting for solvers that keep residual gains
  /// (the greedy family: sharded merge, store_all_greedy,
  /// offline_greedy, iterSetCover's per-guess solves). `gain_updates`
  /// counts O(1) transposed-index gain decrements; `sets_touched`
  /// counts candidate-gain evaluations (heap inspections / rescans).
  /// Zero for solvers without a gain-maintenance loop.
  uint64_t gain_updates = 0;
  uint64_t sets_touched = 0;
  /// Sharded-solver extras: empty for every other solver family.
  std::vector<ShardStat> shard_stats;
  MergeStat merge_stats;
  /// Non-empty iff the run could not be dispatched (unknown solver,
  /// missing geometry payload, ...). When set, all other fields are
  /// default-initialized.
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Name-keyed solver directory. Thread-compatible: registration happens
/// at startup (or test setup); concurrent lookups afterwards are safe.
class SolverRegistry {
 public:
  /// Coarse classification, used by drivers to select sweep subsets.
  enum class Kind {
    kStreaming,  ///< reads F only through scheduler/stream passes
    kOffline,    ///< buffers the stream, then solves in memory
    kGeometric,  ///< streams the range space, reading RunContext::geometry
  };

  using Runner = std::function<RunResult(RunContext&)>;

  struct Entry {
    std::string name;
    std::string description;  ///< one line: bounds / Figure 1.1 row
    Kind kind = Kind::kStreaming;
    Runner run;
  };

  /// The process-wide registry, with every built-in solver
  /// pre-registered on first use.
  static SolverRegistry& Global();

  /// Registers a solver. Returns false (and leaves the registry
  /// unchanged) if the name is already taken or the entry has no runner.
  bool Register(Entry entry);

  /// Entry for `name`, or nullptr.
  const Entry* Find(std::string_view name) const;

  bool Contains(std::string_view name) const { return Find(name) != nullptr; }

  /// All registered names, sorted ascending.
  std::vector<std::string> Names() const;

  /// All entries, sorted by name.
  std::vector<const Entry*> Entries() const;

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Canonical (and only) entry point: dispatches to `name` on `instance`,
/// which supplies the stream, a fresh per-run pass counter and
/// scheduler, and the points/shapes payload if any (whose range space
/// the first stream builds, outside the run's duration_ms).
/// Unknown names and geometric solvers on instances without geometry
/// come back with ok() == false and a diagnostic in `error`.
RunResult RunSolver(std::string_view name, Instance& instance,
                    const RunOptions& options = {});

/// Concurrency-safe variant for the serving layer: identical dispatch,
/// but the stream comes from Instance::NewConcurrentStream — an
/// independent forked scanner over the shared immutable repository — so
/// any number of RunSolverShared calls may execute simultaneously
/// against one Instance. The instance must be Prepare()d, for geom too
/// (RunSolver and NewStream do this implicitly; a cache does it at
/// load), or ok() is false. Never mutates the instance.
RunResult RunSolverShared(std::string_view name, const Instance& instance,
                          const RunOptions& options = {});

}  // namespace streamcover

#endif  // STREAMCOVER_CORE_SOLVER_REGISTRY_H_
