// iter_disk and sieve_disk: RunSolver over an mmap'd binary instance.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "host.h"
#include "offline/greedy.h"
#include "setsystem/binary_io.h"
#include "setsystem/stream_generators.h"
#include "stats.h"
#include "stream/mmap_set_source.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using streamcover::Instance;
using streamcover::RunOptions;
using streamcover::RunResult;
using streamcover::WallTimer;

namespace {

struct DiskSpec {
  const char* workload;
  const char* solver;
  bool planted;    ///< planted generator; sparse otherwise
  uint32_t n;
  uint32_t m;
  uint32_t k;      ///< planted cover size
  uint32_t s;      ///< sparse set-size cap
  uint32_t threshold_passes;
};

// iter_disk: the paper's algorithm, whose bottleneck is pass-end work
// (offline solves, sampling, sub-instance builds) between its two
// physical scans. sieve_disk: p = 4 threshold passes and almost nothing
// between them, so decode, dispatch and kernels carry the time.
constexpr DiskSpec kDiskSpecs[] = {
    {"iter_disk", "iter", true, 4000, 200000, 40, 0, 0},
    {"sieve_disk", "threshold_greedy", false, 200000, 2000000, 0, 32, 4},
};

constexpr uint32_t kThreads = 4;
constexpr uint32_t kScanThreads = 4;
constexpr int kSetups = 5;
constexpr int kBareScans = 3;

const DiskSpec& FindSpec(const std::string& workload) {
  for (const DiskSpec& spec : kDiskSpecs) {
    if (workload == spec.workload) return spec;
  }
  return kDiskSpecs[0];
}

RunOptions OptionsFor(const DiskSpec& spec, uint64_t seed) {
  RunOptions options;
  options.seed = seed;
  options.threads = kThreads;
  options.scan_threads = kScanThreads;
  if (spec.threshold_passes > 0) options.threshold_passes = spec.threshold_passes;
  return options;
}

/// Streams the instance straight to a binary file (never materialized).
bool WriteInstance(const DiskSpec& spec, uint64_t seed,
                   const std::string& path, std::string* error) {
  std::optional<streamcover::BinarySetWriter> writer =
      streamcover::BinarySetWriter::Create(path, spec.n, error);
  if (!writer.has_value()) return false;
  streamcover::SetSink sink = [&writer](std::span<const uint32_t> elements) {
    return writer->AddSet(elements);
  };
  std::optional<streamcover::StreamGenResult> generated;
  if (spec.planted) {
    streamcover::PlantedOptions options;
    options.num_elements = spec.n;
    options.num_sets = spec.m;
    options.cover_size = spec.k;
    options.noise_max_size = std::max(1u, spec.n / 20);
    generated = streamcover::StreamPlanted(options, seed, sink, error);
  } else {
    generated = streamcover::StreamSparse(spec.n, spec.m, spec.s, seed, sink,
                                          error);
  }
  if (!generated.has_value()) {
    *error += ": " + writer->error();
    return false;
  }
  return writer->Finish(error);
}

bool SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fdatasync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Same cover and the same paper columns.
bool SameRun(const RunResult& a, const RunResult& b) {
  return a.cover.set_ids == b.cover.set_ids && a.passes == b.passes &&
         a.physical_scans == b.physical_scans &&
         a.space_words == b.space_words && a.success == b.success;
}

/// Checks one untraced solve. The first successful one is verified
/// against the instance and becomes the reference; the solver is
/// deterministic for a fixed seed, so every later one must equal it.
void CheckSolve(const RunResult& result, Instance& instance,
                std::optional<RunResult>* reference, RunOutcome* outcome) {
  if (!result.ok() || !result.success) {
    outcome->Attempt(false, "solve failed: " + result.error);
    return;
  }
  if (!reference->has_value()) {
    const bool valid = instance.VerifyCover(result.cover);
    outcome->Attempt(valid, "returned cover does not cover the instance");
    if (valid) *reference = result;
    return;
  }
  outcome->Attempt(SameRun(result, **reference),
                   "solve differs from the first solve of this run");
}

/// Encoded bytes one full scan of `source` reads.
uint64_t BodyBytes(const streamcover::MmapSetSource& source) {
  return source.layout().footer_offset - streamcover::binfmt::kHeaderBytes;
}

/// Decode rate of the repository alone: scans with a no-op visitor.
double BareScanGbps(const std::string& path, uint32_t scan_threads) {
  std::optional<streamcover::MmapSetSource> source =
      streamcover::MmapSetSource::Open(path, nullptr);
  if (!source.has_value()) return 0;
  source->set_scan_threads(scan_threads);
  std::vector<double> seconds;
  for (int i = 0; i < kBareScans; ++i) {
    WallTimer timer;
    const bool ok =
        source->SupportsBatchScan()
            ? source->ScanBatches([](std::span<const streamcover::SetView>) {})
            : source->Scan([](const streamcover::SetView&) {});
    if (!ok) return 0;
    seconds.push_back(timer.ElapsedSeconds());
  }
  return static_cast<double>(BodyBytes(*source)) / Median(seconds) / 1e9;
}

}  // namespace

TracedSolve RunTracedSolve(std::string_view solver,
                           streamcover::SetSource& source,
                           uint64_t bytes_per_scan, RunOptions options,
                           TraceRecorder* trace) {
  TracedSolve out;
  const streamcover::SolverRegistry::Entry* entry =
      streamcover::SolverRegistry::Global().Find(solver);
  if (entry == nullptr) {
    out.result.error = "unknown solver '" + std::string(solver) + "'";
    return out;
  }
  ScopedSpan solve(trace, std::string(solver), "solve", -1);
  TracedSetSource traced_source(&source, bytes_per_scan, trace);
  traced_source.set_parent_span(solve.id());
  const streamcover::GreedySolver greedy(options.kernel);
  TracedOfflineSolver traced_offline(
      options.offline != nullptr ? *options.offline : greedy, trace);
  traced_offline.set_parent_span(solve.id());
  options.offline = &traced_offline;

  streamcover::SetStream stream(&traced_source);
  WallTimer timer;
  stream.set_cancel(options.cancel);
  stream.set_scan_threads(options.scan_threads);
  streamcover::PassScheduler scheduler(stream, options.threads, options.kernel);
  streamcover::RunContext ctx{stream, scheduler, nullptr, options};
  out.result = entry->run(ctx);
  out.wall_s = timer.ElapsedSeconds();
  if (!stream.error().empty()) {
    out.result.error = "stream failed during solve: " + stream.error();
  }
  out.rounds = scheduler.physical_scans();
  out.source = traced_source.counters();
  out.offline = traced_offline.counters();
  return out;
}

RunOutcome RunDiskWorkload(const BenchFlags& flags, TraceRecorder* trace) {
  const DiskSpec& spec = FindSpec(flags.workload);
  const RunOptions options = OptionsFor(spec, flags.seed);
  const std::string stem = flags.out_dir + "/" + spec.workload + "-seed" +
                           std::to_string(flags.seed);
  RunOutcome outcome;

  // Set-up: generate + write + open, several times; the last instance
  // is the one measured. Each set-up writes a new file and the previous
  // one is deleted unflushed, so no set-up pays for another's writeback.
  std::optional<Instance> instance;
  std::string path;
  std::vector<double> setup_s, generate_s, open_s;
  for (int i = 0; i < (trace != nullptr ? 1 : kSetups); ++i) {
    instance.reset();
    if (!path.empty()) std::filesystem::remove(path);
    path = stem + "." + std::to_string(i) + ".bin";
    std::string error;
    WallTimer timer;
    if (!WriteInstance(spec, flags.seed, path, &error)) {
      outcome.Attempt(false, "cannot write " + path + ": " + error);
      return outcome;
    }
    generate_s.push_back(timer.ElapsedSeconds());
    instance = Instance::FromFile(path, &error);
    if (!instance.has_value()) {
      outcome.Attempt(false, "cannot open " + path + ": " + error);
      return outcome;
    }
    setup_s.push_back(timer.ElapsedSeconds());
    open_s.push_back(setup_s.back() - generate_s.back());
  }
  // Flush the measured file before timing, so the kernel's periodic
  // writeback of it does not land inside the timed solves.
  if (!SyncFile(path)) {
    outcome.Attempt(false, "cannot flush " + path);
    return outcome;
  }

  std::map<std::string, double>& metrics = outcome.metrics;
  std::optional<RunResult> reference;
  if (trace == nullptr) {
    std::vector<double> walls, rss_mb;
    WallTimer window;
    while (walls.empty() || window.ElapsedSeconds() < flags.seconds) {
      ResetPeakRss();
      WallTimer timer;
      RunResult result = streamcover::RunSolver(spec.solver, *instance, options);
      walls.push_back(timer.ElapsedSeconds());
      rss_mb.push_back(PeakRssMb());
      CheckSolve(result, *instance, &reference, &outcome);
    }
    double busy_s = 0;
    for (double wall : walls) busy_s += wall;
    metrics["solve_s"] = Median(walls);
    metrics["setup_s"] = Median(setup_s);
    metrics["peak_rss_mb"] = Median(rss_mb);
    metrics["serve_rps"] =
        static_cast<double>(outcome.attempted - outcome.failed) / busy_s;
    metrics["serve_p50_ms"] = Median(walls) * 1e3;
    metrics["serve_p99_ms"] = ReportableTail(walls, 0.99) * 1e3;
    if (reference.has_value()) {
      metrics["cover_size"] = static_cast<double>(reference->cover.size());
      metrics["passes"] = static_cast<double>(reference->passes);
      metrics["physical_scans"] =
          static_cast<double>(reference->physical_scans);
      metrics["space_words"] = static_cast<double>(reference->space_words);
    }
    std::printf("%s: %zu solves of %s, n=%u m=%u, threads=%u scan_threads=%u;"
                " wall s:",
                spec.workload, walls.size(), spec.solver, spec.n, spec.m,
                kThreads, kScanThreads);
    for (double wall : walls) std::printf(" %.4f", wall);
    std::printf("\n");
  } else {
    std::string error;
    std::optional<streamcover::MmapSetSource> source =
        streamcover::MmapSetSource::Open(path, &error);
    if (!source.has_value()) {
      outcome.Attempt(false, "cannot open " + path + ": " + error);
      return outcome;
    }
    metrics["setup.generate_s"] = generate_s.front();
    metrics["setup.open_s"] = open_s.front();
    metrics["stream.bare_gbps"] = BareScanGbps(path, options.scan_threads);

    // Untraced and traced solves alternate, so both see the same
    // machine state; the traced one must reproduce the untraced one.
    std::vector<double> untraced_s, traced_s;
    std::vector<std::map<std::string, double>> layers;  // one per traced solve
    WallTimer window;
    while (untraced_s.empty() || window.ElapsedSeconds() < flags.seconds) {
      RunResult untraced =
          streamcover::RunSolver(spec.solver, *instance, options);
      untraced_s.push_back(untraced.duration_ms * 1e-3);
      CheckSolve(untraced, *instance, &reference, &outcome);

      TracedSolve traced = RunTracedSolve(spec.solver, *source,
                                          BodyBytes(*source), options, trace);
      outcome.Attempt(traced.result.ok() && SameRun(traced.result, untraced),
                      "traced solve differs from the untraced solve: " +
                          traced.result.error);
      const SourceCounters& s = traced.source;
      const OfflineCounters& o = traced.offline;
      const double passend = traced.wall_s - s.scan_s;
      layers.push_back({
          {"stream.scan_s", s.scan_s},
          {"stream.wait_s", s.scan_s - s.dispatch_s},
          {"stream.sets", static_cast<double>(s.sets)},
          {"stream.bytes", static_cast<double>(s.bytes)},
          {"stream.batches", static_cast<double>(s.batches)},
          {"sched.dispatch_s", s.dispatch_s},
          {"sched.rounds", static_cast<double>(traced.rounds)},
          {"passend.wall_s", passend},
          {"passend.build_s", passend - o.solve_s},
          {"offline.solve_s", o.solve_s},
          {"offline.calls", static_cast<double>(o.calls)},
          {"offline.sub_sets", static_cast<double>(o.sub_sets)},
          {"offline.sub_nnz", static_cast<double>(o.sub_nnz)},
          {"offline.gain_updates", static_cast<double>(o.gain_updates)},
          {"offline.sets_touched", static_cast<double>(o.sets_touched)},
      });
      traced_s.push_back(traced.wall_s);
    }
    // The layer numbers all come from one solve, the one with the
    // median traced wall, so they add up to that solve's wall.
    std::vector<size_t> order(traced_s.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return traced_s[a] < traced_s[b]; });
    const size_t median_solve = order[(order.size() - 1) / 2];
    for (const auto& [name, value] : layers[median_solve]) metrics[name] = value;
    const double plain_s = Median(untraced_s);
    metrics["trace.overhead_frac"] = (Median(traced_s) - plain_s) / plain_s;
    const double layer_sum = metrics["stream.wait_s"] +
                             metrics["sched.dispatch_s"] +
                             metrics["passend.wall_s"];
    std::printf(
        "%s: %zu traced + %zu untraced solves; median traced solve %.4f s, "
        "its wait + dispatch + pass-end = %.4f s (%.2f%%)\n",
        spec.workload, traced_s.size(), untraced_s.size(),
        traced_s[median_solve], layer_sum,
        100.0 * layer_sum / traced_s[median_solve]);
  }
  instance.reset();
  std::filesystem::remove(path);
  return outcome;
}

}  // namespace perfbench
