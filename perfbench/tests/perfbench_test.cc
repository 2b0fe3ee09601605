// The benchmark's own tests: the layer decorators forward faithfully,
// the order statistics are right, and bad flags are refused.

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/instance.h"
#include "core/solver_registry.h"
#include "flags.h"
#include "offline/greedy.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "stats.h"
#include "stream/mmap_set_source.h"
#include "trace.h"
#include "traced_offline.h"
#include "traced_source.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using streamcover::MmapSetSource;
using streamcover::SetView;

/// Order-sensitive digest of everything a scan delivers.
struct Checksum {
  uint64_t hash = 1469598103934665603ULL;
  uint64_t sets = 0;
  void Add(const SetView& set) {
    Mix(set.id);
    for (uint32_t e : set.elems) Mix(e);
    ++sets;
  }
  void Mix(uint64_t value) { hash = (hash ^ value) * 1099511628211ULL; }
};

/// A binary instance file in the working directory, removed at exit.
class BinaryFile {
 public:
  BinaryFile(const streamcover::SetSystem& system, const char* tag)
      : path_(std::string("perfbench_test_") + tag + "_" +
              std::to_string(::getpid()) + ".bin") {
    std::string error;
    EXPECT_TRUE(streamcover::WriteBinarySetSystem(system, path_, &error))
        << error;
  }
  ~BinaryFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Several 256 KiB decode chunks, so the pipelined path delivers many
// batches.
streamcover::SetSystem SparseSystem() {
  streamcover::Rng rng(7);
  return streamcover::GenerateSparse(5000, 120000, 32, rng).system;
}

MmapSetSource OpenSource(const std::string& path) {
  std::string error;
  std::optional<MmapSetSource> source = MmapSetSource::Open(path, &error);
  EXPECT_TRUE(source.has_value()) << error;
  return std::move(*source);
}

TEST(TracedSetSourceTest, DeliversTheBareChecksumAtOneAndFourScanThreads) {
  const streamcover::SetSystem system = SparseSystem();
  BinaryFile file(system, "checksum");
  for (uint32_t scan_threads : {1u, 4u}) {
    SCOPED_TRACE(scan_threads);
    MmapSetSource bare = OpenSource(file.path());
    bare.set_scan_threads(scan_threads);
    Checksum expected;
    ASSERT_TRUE(bare.Scan([&](const SetView& set) { expected.Add(set); }));
    ASSERT_EQ(expected.sets, system.num_sets());

    MmapSetSource inner = OpenSource(file.path());
    TraceRecorder trace;
    TracedSetSource traced(&inner, 1000, &trace);
    traced.set_scan_threads(scan_threads);  // as SetStream does
    EXPECT_EQ(traced.SupportsBatchScan(), scan_threads > 1);
    Checksum per_set, per_batch;
    ASSERT_TRUE(traced.Scan([&](const SetView& set) { per_set.Add(set); }));
    ASSERT_TRUE(traced.ScanBatches([&](std::span<const SetView> sets) {
      for (const SetView& set : sets) per_batch.Add(set);
    }));
    EXPECT_EQ(per_set.hash, expected.hash);
    EXPECT_EQ(per_set.sets, expected.sets);
    EXPECT_EQ(per_batch.hash, expected.hash);

    const SourceCounters& counters = traced.counters();
    EXPECT_EQ(counters.scans, 2u);
    EXPECT_EQ(counters.sets, 2 * uint64_t{system.num_sets()});
    EXPECT_EQ(counters.elements, 2 * uint64_t{system.total_size()});
    EXPECT_EQ(counters.bytes, 2000u);
    EXPECT_GE(counters.scan_s, counters.dispatch_s);
    if (scan_threads > 1) {
      EXPECT_GT(counters.batches, 2u);  // several chunks per scan
      EXPECT_EQ(trace.CountByLayer().at("sched"), counters.batches);
    } else {
      EXPECT_EQ(counters.batches, 0u);  // serial scans are timed whole
    }
    EXPECT_EQ(trace.CountByLayer().at("stream"), 2u);
  }
}

TEST(TracedOfflineSolverTest, ReturnsTheInnerSolversCovers) {
  const streamcover::GreedySolver greedy;
  TracedOfflineSolver traced(greedy, nullptr);
  uint64_t sets = 0;
  for (uint64_t seed : {1, 2, 3}) {
    streamcover::Rng rng(seed);
    streamcover::PlantedOptions options;
    options.num_elements = 300;
    options.num_sets = 900;
    options.cover_size = 8;
    const streamcover::SetSystem system =
        streamcover::GeneratePlanted(options, rng).system;
    const streamcover::OfflineResult want = greedy.Solve(system);
    const streamcover::OfflineResult got = traced.Solve(system);
    EXPECT_EQ(got.cover.set_ids, want.cover.set_ids);
    EXPECT_EQ(got.gain_updates, want.gain_updates);
    sets += system.num_sets();
  }
  EXPECT_EQ(traced.counters().calls, 3u);
  EXPECT_EQ(traced.counters().sub_sets, sets);
  EXPECT_EQ(traced.Rho(1000), greedy.Rho(1000));
  EXPECT_EQ(traced.name(), greedy.name());
}

TEST(RunTracedSolveTest, MatchesRunSolverThroughTheDecorators) {
  streamcover::Rng rng(11);
  streamcover::PlantedOptions planted;
  planted.num_elements = 600;
  planted.num_sets = 6000;
  planted.cover_size = 12;
  BinaryFile file(streamcover::GeneratePlanted(planted, rng).system, "iter");
  std::string error;
  std::optional<streamcover::Instance> instance =
      streamcover::Instance::FromFile(file.path(), &error);
  ASSERT_TRUE(instance.has_value()) << error;
  MmapSetSource source = OpenSource(file.path());
  for (const char* solver : {"iter", "threshold_greedy"}) {
    SCOPED_TRACE(solver);
    streamcover::RunOptions options;
    options.threads = 4;
    options.scan_threads = 4;
    options.threshold_passes = 3;
    const streamcover::RunResult want =
        streamcover::RunSolver(solver, *instance, options);
    TraceRecorder trace;
    const TracedSolve got =
        RunTracedSolve(solver, source, 1, options, &trace);
    ASSERT_TRUE(got.result.ok()) << got.result.error;
    EXPECT_EQ(got.result.cover.set_ids, want.cover.set_ids);
    EXPECT_EQ(got.result.passes, want.passes);
    EXPECT_EQ(got.result.physical_scans, want.physical_scans);
    EXPECT_EQ(got.result.space_words, want.space_words);
    EXPECT_EQ(got.rounds, want.physical_scans);
    EXPECT_EQ(got.source.scans, want.physical_scans);
    EXPECT_LE(got.source.scan_s, got.wall_s);
    EXPECT_EQ(got.offline.calls > 0, std::string(solver) == "iter");
  }
}

TEST(TraceRecorderTest, SelfTimeSubtractsTheUnionOfChildren) {
  TraceRecorder trace;
  const int64_t root = trace.Begin("solve", "solve", -1);
  const int64_t child = trace.Begin("scan", "stream", root);
  usleep(2000);
  trace.End(child);
  trace.End(root);
  const auto self = trace.SelfSecondsByLayer();
  const std::vector<Span> spans = trace.spans();
  const double root_s = (spans[0].end_us - spans[0].start_us) * 1e-6;
  const double child_s = (spans[1].end_us - spans[1].start_us) * 1e-6;
  EXPECT_NEAR(self.at("stream"), child_s, 1e-9);
  EXPECT_NEAR(self.at("solve"), root_s - child_s, 1e-9);
  const streamcover::JsonValue doc = trace.ToChromeJson("meta");
  EXPECT_EQ(doc.At("traceEvents").size(), 2u);
  EXPECT_EQ(doc.At("traceEvents")[1].At("args").At("parent").AsInt64(), root);
}

TEST(StatsTest, Median) {
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Median({3}), 3);
  EXPECT_EQ(Median({5, 1, 3}), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(StatsTest, ReportableTailKeepsTenSamplesBeyondIt) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(ReportableTail(values, 0.99), 990);  // nearest rank, ten beyond
  EXPECT_EQ(ReportableTail(values, 0.9), 900);
  values.resize(25);  // 1000..976: p99 would leave none beyond
  EXPECT_EQ(ReportableTail(values, 0.99), 990);  // rank 15 of 25
  values.resize(15);  // rank 5 would sit below the median
  EXPECT_EQ(ReportableTail(values, 0.99), Median(values));
  EXPECT_EQ(ReportableTail({7, 1, 4}, 0.99), 4);  // few samples: the median
  EXPECT_EQ(ReportableTail({}, 0.99), 0);
}

std::optional<BenchFlags> Parse(std::vector<std::string> args,
                                std::string* error) {
  return ParseFlags(args, error);
}

TEST(FlagsTest, AcceptsTheDriverCommandLine) {
  std::string error;
  std::optional<BenchFlags> flags =
      Parse({"--workload", "serve_mix", "--seed", "42", "--seconds", "10",
             "--trace", "1"},
            &error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_EQ(flags->workload, "serve_mix");
  EXPECT_EQ(flags->seed, 42u);
  EXPECT_EQ(flags->seconds, 10u);
  EXPECT_TRUE(flags->trace);
  flags = Parse({"--trace", "0", "--seconds", "1", "--seed", "0",
                 "--workload", "iter_disk", "--out-dir", "x"},
                &error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_FALSE(flags->trace);
  EXPECT_EQ(flags->out_dir, "x");
}

TEST(FlagsTest, RejectsBadFlags) {
  const std::vector<std::string> good = {"--workload", "iter_disk", "--seed",
                                         "1", "--seconds", "5", "--trace",
                                         "0"};
  auto with = [&good](size_t index, std::string value) {
    std::vector<std::string> args = good;
    args[index] = std::move(value);
    return args;
  };
  const std::vector<std::vector<std::string>> bad = {
      {},
      with(1, "nope"),          // unknown workload
      with(3, "-1"),            // negative seed
      with(3, "1x"),            // trailing junk
      with(3, ""),              // empty seed
      with(5, "0"),             // too short
      with(5, "601"),           // too long
      with(5, "2.5"),           // not whole
      with(7, "2"),             // trace not 0/1
      with(0, "--workloads"),   // unknown flag
      {"--workload", "iter_disk", "--seed", "1", "--seconds", "5"},
      {"--workload", "iter_disk", "--seed", "1", "--seconds", "5", "--trace"},
      {"--workload", "iter_disk", "--workload", "iter_disk", "--seed", "1",
       "--seconds", "5", "--trace", "0"},
      {"--workload", "iter_disk", "--seed", "1", "--seconds", "5", "--trace",
       "0", "--out-dir", ""},
  };
  for (const std::vector<std::string>& args : bad) {
    std::string error;
    EXPECT_FALSE(Parse(args, &error).has_value())
        << testing::PrintToString(args);
    EXPECT_FALSE(error.empty());
  }
}

}  // namespace
}  // namespace perfbench
