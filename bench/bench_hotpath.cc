// bench_hotpath — microbenchmarks for the columnar hot path (CSR
// SetViews + projection arena, coverage kernels, scan sources, dense
// rows).
//
// Workload: the Figure 1.1 planted instance (n=2000, m=4000, OPT<=25,
// seed 1). The dispatch stage runs Size-Test-shaped work — filter each
// set against a live bitset, store light projections, drop heavy ones —
// multiplexed over `--consumers` parallel consumers on a PassScheduler,
// exactly the per-set work iterSetCover's guesses do per scan. The
// consumers read the borrowed SetView span in place and filter straight
// into a bump arena; per-round cleanup is an O(1) epoch reset. Its
// sets/sec is a trajectory number, not an A/B.
//
// A second A/B stage measures the coverage kernels themselves
// (util/cover_kernels.h): the masked-filter, masked-popcount, and
// masked-mark kernels and their per-element reference loops
// (tests/reference_kernels.h) stream every set of the instance against
// the live mask, checksum-verified to do identical work, reported as
// elements/sec and a word-vs-scalar speedup.
//
// A third stage measures the disk path end to end: a sparse instance
// (--scan-m sets, default 200k; the acceptance run uses 10^7) is
// streamed straight to disk in both formats via the streaming
// generators, then scanned through each SetSource — text re-parse
// (FileSetSource), binary mmap chunk decode (MmapSetSource) inline and
// on 4 decode threads, and the in-memory CSR (InMemorySetSource over
// the loaded system) — with a checksum cross-check proving they all
// dispatch identical elements. Reported as GB/s of underlying bytes and
// sets/sec per source; the `mmap` row is the inline chunk decode.
//
// A fourth stage A/Bs the dense representation: the dense-eligible sets
// of a zipf instance generated at max_set_size = n/2 run the sparse
// word kernels over their spans vs the fused dense kernels
// (count/mark) over their BitsetCSR rows at the detected ISA tier,
// checksum-verified to do identical work. The CI release gate holds
// the dense fused count path at >= 1.5x the sparse word path.
//
// Reported: sets/sec dispatched, ns per element projected, the
// word-vs-scalar / dense-vs-word speedups, the scan-stage GB/s, peak
// RSS, the detected SIMD tier (`cpu` block), and a timed registry run
// of the full `iter` solver with its covers/passes/space so the perf
// trajectory carries correctness context. `--json FILE` (default
// BENCH_hotpath.json) writes schema streamcover.bench_hotpath.v6; CI
// uploads it per PR so the numbers accumulate. `--selftest` checks the
// strict flag parser (non-positive and malformed values rejected) and
// exits.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "reference_kernels.h"
#include "core/instance.h"
#include "core/solver_registry.h"
#include "core/workload_registry.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "setsystem/stream_generators.h"
#include "stream/mmap_set_source.h"
#include "stream/pass_scheduler.h"
#include "stream/set_source.h"
#include "util/arena.h"
#include "util/bitset.h"
#include "util/cover_kernels.h"
#include "util/json.h"
#include "util/table.h"
#include "util/timer.h"

namespace streamcover {
namespace {

constexpr uint32_t kN = 2000;
constexpr uint32_t kM = 4000;
constexpr uint32_t kOpt = 25;
constexpr uint64_t kSeed = 1;

/// Every consumer filters against the same live mask (every other
/// element "live") with a threshold that keeps most projections light —
/// the storage-heavy regime the arena exists for.
DynamicBitset MakeLiveMask(uint32_t n) {
  DynamicBitset live(n);
  for (uint32_t e = 0; e < n; e += 2) live.Set(e);
  return live;
}

/// Size-Test-shaped consumer: borrowed spans in, bump-arena storage,
/// O(1) epoch reset per round.
class ViewPathConsumer final : public ScanConsumer {
 public:
  ViewPathConsumer(const DynamicBitset* live, size_t threshold,
                   uint64_t rounds)
      : live_(live), threshold_(threshold), remaining_(rounds) {}

  void OnSet(const SetView& set) override {
    const size_t mark = arena_.size();
    for (uint32_t e : set.elems) {
      if (live_->Test(e)) arena_.Push(e);
    }
    const size_t length = arena_.size() - mark;
    if (length == 0 || length >= threshold_) {
      arena_.RewindTo(mark);
      return;
    }
    refs_.push_back(set.id);
  }
  void OnPassEnd() override {
    stored_ += refs_.size();
    refs_.clear();
    arena_.ResetEpoch();
    if (remaining_ > 0) --remaining_;
  }
  bool done() const override { return remaining_ == 0; }

  uint64_t stored() const { return stored_; }

 private:
  const DynamicBitset* live_;
  const size_t threshold_;
  uint64_t remaining_;
  U32Arena arena_;
  std::vector<uint32_t> refs_;
  uint64_t stored_ = 0;
};

struct DispatchStats {
  double seconds = 0;
  double sets_per_sec = 0;
  double ns_per_element = 0;
  uint64_t stored = 0;
};

DispatchStats RunDispatch(Instance& instance, const DynamicBitset& live,
                          size_t threshold, uint32_t consumers,
                          uint64_t rounds, uint32_t threads) {
  SetStream stream = instance.NewStream();
  PassScheduler scheduler(stream, threads);
  std::vector<ViewPathConsumer> pool;
  pool.reserve(consumers);
  for (uint32_t c = 0; c < consumers; ++c) {
    pool.emplace_back(&live, threshold, rounds);
  }
  for (ViewPathConsumer& c : pool) scheduler.Register(&c);

  WallTimer timer;
  scheduler.RunToCompletion();
  DispatchStats stats;
  stats.seconds = timer.ElapsedSeconds();
  const SetSystem* system = instance.materialized();
  const double dispatched_sets = static_cast<double>(kM) *
                                 static_cast<double>(consumers) *
                                 static_cast<double>(rounds);
  const double dispatched_elems =
      static_cast<double>(system != nullptr ? system->total_size() : 0) *
      static_cast<double>(consumers) * static_cast<double>(rounds);
  stats.sets_per_sec = dispatched_sets / stats.seconds;
  stats.ns_per_element = stats.seconds * 1e9 / dispatched_elems;
  for (const ViewPathConsumer& c : pool) stats.stored += c.stored();
  return stats;
}

// --- Kernel A/B stage: the masked-filter / masked-popcount /
// masked-mark kernels and their reference loops on the same instance
// and live mask the dispatch stage uses. --------------------------------

struct KernelStats {
  double seconds = 0;
  double melems_per_sec = 0;  ///< millions of span elements consumed/sec
  uint64_t kept = 0;          ///< elements that survived the mask
};

/// The span kernels under A/B: the production kernels and the
/// reference loops, both with the signatures of util/cover_kernels.h.
using FilterKernel = size_t (*)(std::span<const uint32_t>,
                                const DynamicBitset&, U32Arena&);
using CountKernel = size_t (*)(std::span<const uint32_t>,
                               const DynamicBitset&);
using MarkKernel = size_t (*)(std::span<const uint32_t>, DynamicBitset&);

/// Streams every set through `filter` against `live`, `rounds` times,
/// with an O(1) arena epoch reset per round — the Size-Test inner loop
/// in isolation.
KernelStats RunFilterStage(const SetSystem& system, const LiveMask& live,
                           uint64_t rounds, FilterKernel filter) {
  U32Arena arena;
  KernelStats stats;
  WallTimer timer;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (uint32_t s = 0; s < system.num_sets(); ++s) {
      stats.kept += filter(system.GetSet(s), live.bits(), arena);
    }
    arena.ResetEpoch();
  }
  stats.seconds = timer.ElapsedSeconds();
  stats.melems_per_sec = static_cast<double>(system.total_size()) *
                         static_cast<double>(rounds) / stats.seconds / 1e6;
  return stats;
}

/// Same shape for CountUncovered — the gain test every threshold
/// algorithm runs per set.
KernelStats RunCountStage(const SetSystem& system, const LiveMask& live,
                          uint64_t rounds, CountKernel count) {
  KernelStats stats;
  WallTimer timer;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (uint32_t s = 0; s < system.num_sets(); ++s) {
      stats.kept += count(system.GetSet(s), live.bits());
    }
  }
  stats.seconds = timer.ElapsedSeconds();
  stats.melems_per_sec = static_cast<double>(system.total_size()) *
                         static_cast<double>(rounds) / stats.seconds / 1e6;
  return stats;
}

/// And for MarkCovered — the residual update. The mask is consumed as
/// sets clear it, so each round ends with a word-parallel OrInto
/// restore from the pristine mask (covered bits are a subset, so the
/// union is an exact reset).
KernelStats RunMarkStage(const SetSystem& system, const LiveMask& live,
                         uint64_t rounds, MarkKernel mark) {
  DynamicBitset working = live.bits();
  KernelStats stats;
  WallTimer timer;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (uint32_t s = 0; s < system.num_sets(); ++s) {
      stats.kept += mark(system.GetSet(s), working);
    }
    live.bits().OrInto(working);
  }
  stats.seconds = timer.ElapsedSeconds();
  stats.melems_per_sec = static_cast<double>(system.total_size()) *
                         static_cast<double>(rounds) / stats.seconds / 1e6;
  return stats;
}

/// One untimed pass proving the kernel and its reference produce
/// identical sequences, not just identical totals.
bool VerifyKernelTwins(const SetSystem& system, const LiveMask& live) {
  std::vector<uint32_t> scalar_out;
  std::vector<uint32_t> word_out;
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    scalar_out.clear();
    word_out.clear();
    reference::FilterInto(system.GetSet(s), live.bits(), scalar_out);
    FilterInto(system.GetSet(s), live.bits(), word_out);
    if (scalar_out != word_out) return false;
  }
  return true;
}

JsonValue KernelStatsJson(const KernelStats& stats) {
  JsonValue v = JsonValue::Object();
  v.Set("seconds", stats.seconds);
  v.Set("melems_per_sec", stats.melems_per_sec);
  v.Set("kept", stats.kept);
  return v;
}

JsonValue KernelAbJson(const KernelStats& scalar, const KernelStats& word) {
  JsonValue v = JsonValue::Object();
  v.Set("scalar", KernelStatsJson(scalar));
  v.Set("word", KernelStatsJson(word));
  v.Set("speedup", word.melems_per_sec / scalar.melems_per_sec);
  return v;
}

// --- Scan stage: the disk path end to end. ---------------------------

struct ScanStats {
  double seconds = 0;
  double gb_per_sec = 0;    ///< underlying bytes consumed per second
  double sets_per_sec = 0;
  uint64_t bytes = 0;       ///< bytes behind one full scan
  uint64_t sets = 0;
  uint64_t checksum = 0;    ///< sum of all dispatched element ids
};

/// One warmup scan (page cache / parse buffers), then one timed scan
/// that folds every dispatched element into a checksum. Every source is
/// consumed through ScanBatches, the grain PassScheduler dispatches.
bool MeasureScan(SetSource& source, uint64_t bytes, ScanStats* stats) {
  auto scan_once = [&](ScanStats* out) {
    uint64_t checksum = 0, sets = 0;
    const bool ok = source.ScanBatches([&](std::span<const SetView> views) {
      sets += views.size();
      for (const SetView& view : views) {
        for (uint32_t e : view.elems) checksum += e;
      }
    });
    if (out != nullptr) {
      out->checksum = checksum;
      out->sets = sets;
    }
    return ok;
  };
  if (!scan_once(nullptr)) return false;
  WallTimer timer;
  if (!scan_once(stats)) return false;
  stats->seconds = timer.ElapsedSeconds();
  stats->bytes = bytes;
  stats->gb_per_sec = static_cast<double>(bytes) / stats->seconds / 1e9;
  stats->sets_per_sec = static_cast<double>(stats->sets) / stats->seconds;
  return true;
}

/// Best of `trials` timed scans (one shared warmup inside the first
/// MeasureScan) — the measurement the pipelined-vs-inline gate runs on,
/// so a single scheduler hiccup can't fail CI.
bool MeasureScanBestOf(SetSource& source, uint64_t bytes, int trials,
                       ScanStats* stats) {
  ScanStats best;
  for (int trial = 0; trial < trials; ++trial) {
    ScanStats current;
    if (!MeasureScan(source, bytes, &current)) return false;
    if (trial == 0 || current.sets_per_sec > best.sets_per_sec) {
      best = current;
    }
  }
  *stats = best;
  return true;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is ? static_cast<uint64_t>(is.tellg()) : 0;
}

JsonValue ScanStatsJson(const ScanStats& stats) {
  JsonValue v = JsonValue::Object();
  v.Set("seconds", stats.seconds);
  v.Set("gb_per_sec", stats.gb_per_sec);
  v.Set("sets_per_sec", stats.sets_per_sec);
  v.Set("bytes", stats.bytes);
  return v;
}

/// Streams a sparse instance (m sets, max size 16) to disk in both
/// formats, scans it through every SetSource, cross-checks, and fills
/// *scan_json. Returns false on any failure.
bool RunScanStage(uint64_t scan_m, uint64_t seed, JsonValue* scan_json) {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr ? tmp : "/tmp";
  const std::string bin_path = dir + "/bench_hotpath_scan.bin";
  const std::string txt_path = dir + "/bench_hotpath_scan.txt";
  const uint32_t n = static_cast<uint32_t>(
      std::max<uint64_t>(1024, scan_m / 10));
  const uint32_t max_set_size = 16;

  // One generator pass feeds both files — never materialized.
  std::string error;
  std::optional<BinarySetWriter> writer =
      BinarySetWriter::Create(bin_path, n, &error);
  if (!writer.has_value()) {
    std::fprintf(stderr, "scan stage: %s\n", error.c_str());
    return false;
  }
  std::ofstream text(txt_path);
  text << "setcover " << n << " " << scan_m << "\n";
  std::vector<uint32_t> scratch;
  SetSink sink = [&](std::span<const uint32_t> elements) {
    if (!writer->AddSet(elements)) return false;
    scratch.assign(elements.begin(), elements.end());
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    text << scratch.size();
    for (uint32_t e : scratch) text << " " << e;
    text << "\n";
    return text.good();
  };
  WallTimer gen_timer;
  std::optional<StreamGenResult> gen = StreamSparse(
      n, static_cast<uint32_t>(scan_m), max_set_size, seed, sink, &error);
  if (!gen.has_value() || !writer->Finish(&error) ||
      !text.flush().good()) {
    std::fprintf(stderr, "scan stage: generation failed: %s\n",
                 error.c_str());
    return false;
  }
  const double gen_seconds = gen_timer.ElapsedSeconds();
  const uint64_t nnz = writer->nnz();
  const uint64_t bin_bytes = FileBytes(bin_path);
  const uint64_t txt_bytes = FileBytes(txt_path);

  ScanStats text_stats, mmap_stats, pipelined_stats, memory_stats;
  constexpr uint32_t kPipelineThreads = 4;
  {
    std::optional<FileSetSource> source =
        FileSetSource::Open(txt_path, &error);
    if (!source.has_value() ||
        !MeasureScan(*source, txt_bytes, &text_stats)) {
      std::fprintf(stderr, "scan stage: text scan failed: %s\n",
                   source.has_value() ? source->error().c_str()
                                      : error.c_str());
      return false;
    }
  }
  {
    std::optional<MmapSetSource> source =
        MmapSetSource::Open(bin_path, &error);
    // Inline and pipelined runs share the mapping (and its page-cache
    // warmup), best-of-3 each: the 2x gate compares equal work — the
    // checksum cross-check below proves it — under equal cache state.
    if (!source.has_value() ||
        !MeasureScanBestOf(*source, bin_bytes, 3, &mmap_stats)) {
      std::fprintf(stderr, "scan stage: mmap scan failed: %s\n",
                   source.has_value() ? source->error().c_str()
                                      : error.c_str());
      return false;
    }
    source->set_scan_threads(kPipelineThreads);
    if (!MeasureScanBestOf(*source, bin_bytes, 3, &pipelined_stats)) {
      std::fprintf(stderr, "scan stage: pipelined scan failed: %s\n",
                   source->error().c_str());
      return false;
    }
  }
  std::optional<SetSystem> system = LoadAnySetSystemFromFile(bin_path, &error);
  if (!system.has_value()) {
    std::fprintf(stderr, "scan stage: load failed: %s\n", error.c_str());
    return false;
  }
  {
    InMemorySetSource source(&*system);
    if (!MeasureScan(source, static_cast<uint64_t>(nnz) * sizeof(uint32_t),
                     &memory_stats)) {
      std::fprintf(stderr, "scan stage: in-memory scan failed\n");
      return false;
    }
  }
  if (text_stats.checksum != mmap_stats.checksum ||
      text_stats.checksum != memory_stats.checksum ||
      text_stats.checksum != pipelined_stats.checksum ||
      text_stats.sets != mmap_stats.sets ||
      text_stats.sets != memory_stats.sets ||
      text_stats.sets != pipelined_stats.sets) {
    std::fprintf(
        stderr,
        "scan stage: sources disagree (checksums %llu/%llu/%llu/%llu)\n",
        static_cast<unsigned long long>(text_stats.checksum),
        static_cast<unsigned long long>(mmap_stats.checksum),
        static_cast<unsigned long long>(pipelined_stats.checksum),
        static_cast<unsigned long long>(memory_stats.checksum));
    return false;
  }

  benchutil::Banner(
      "Disk path — one scan over a streamed-to-disk sparse instance "
      "(n=" + std::to_string(n) + ", m=" + std::to_string(scan_m) +
      ", nnz=" + std::to_string(nnz) + ", gen " +
      Table::Fmt(gen_seconds, 1) + "s)");
  Table table({"source", "bytes", "GB/s", "sets/sec"});
  table.AddRow({"text (FileSetSource)", Table::Fmt(txt_bytes),
                Table::Fmt(text_stats.gb_per_sec, 3),
                Table::Fmt(static_cast<uint64_t>(text_stats.sets_per_sec))});
  table.AddRow({"binary inline (MmapSetSource)", Table::Fmt(bin_bytes),
                Table::Fmt(mmap_stats.gb_per_sec, 3),
                Table::Fmt(static_cast<uint64_t>(mmap_stats.sets_per_sec))});
  table.AddRow(
      {"binary pipelined (x" + std::to_string(kPipelineThreads) + ")",
       Table::Fmt(bin_bytes), Table::Fmt(pipelined_stats.gb_per_sec, 3),
       Table::Fmt(static_cast<uint64_t>(pipelined_stats.sets_per_sec))});
  table.AddRow({"in-memory CSR", Table::Fmt(memory_stats.bytes),
                Table::Fmt(memory_stats.gb_per_sec, 3),
                Table::Fmt(
                    static_cast<uint64_t>(memory_stats.sets_per_sec))});
  table.Print(std::cout);
  benchutil::Note(
      "mmap vs text: " +
      Table::Fmt(mmap_stats.sets_per_sec / text_stats.sets_per_sec, 2) +
      "x sets/sec; binary file is " +
      Table::Fmt(static_cast<double>(txt_bytes) /
                     static_cast<double>(bin_bytes),
                 2) +
      "x smaller than text");
  benchutil::Note(
      "pipelined vs inline mmap decode: " +
      Table::Fmt(pipelined_stats.sets_per_sec / mmap_stats.sets_per_sec,
                 2) +
      "x sets/sec at " + std::to_string(kPipelineThreads) +
      " decode threads (best of 3, equal checksums)");

  *scan_json = JsonValue::Object();
  scan_json->Set("m", scan_m);
  scan_json->Set("n", static_cast<uint64_t>(n));
  scan_json->Set("nnz", nnz);
  scan_json->Set("generation_seconds", gen_seconds);
  scan_json->Set("text", ScanStatsJson(text_stats));
  scan_json->Set("mmap", ScanStatsJson(mmap_stats));
  JsonValue pipelined = ScanStatsJson(pipelined_stats);
  pipelined.Set("scan_threads", static_cast<uint64_t>(kPipelineThreads));
  pipelined.Set("speedup_vs_mmap",
                pipelined_stats.sets_per_sec / mmap_stats.sets_per_sec);
  scan_json->Set("pipelined", std::move(pipelined));
  scan_json->Set("in_memory", ScanStatsJson(memory_stats));
  std::remove(bin_path.c_str());
  std::remove(txt_path.c_str());
  return true;
}

// --- Dense-representation A/B: sparse word kernels over spans vs the
// fused dense kernels over BitsetCSR rows, on the dense-eligible sets
// of a zipf instance drawn at max_set_size = n/2. ---------------------

struct DenseStats {
  double seconds = 0;
  double melems_per_sec = 0;  ///< span elements per second (shared unit)
  uint64_t checksum = 0;
};

JsonValue DenseStatsJson(const DenseStats& stats) {
  JsonValue v = JsonValue::Object();
  v.Set("seconds", stats.seconds);
  v.Set("melems_per_sec", stats.melems_per_sec);
  v.Set("checksum", stats.checksum);
  return v;
}

JsonValue DenseAbJson(const DenseStats& word, const DenseStats& dense) {
  JsonValue v = JsonValue::Object();
  v.Set("word", DenseStatsJson(word));
  v.Set("dense_auto", DenseStatsJson(dense));
  v.Set("speedup", dense.melems_per_sec / word.melems_per_sec);
  return v;
}

bool RunDenseStage(uint64_t rounds, uint64_t seed, JsonValue* dense_json) {
  const uint32_t n = 4096;
  const uint32_t m = 2000;
  const double alpha = 1.1;
  const uint32_t max_set_size = n / 2;
  Rng rng(seed);
  PlantedInstance zipf = GenerateZipf(n, m, alpha, max_set_size, rng);
  const SetSystem& system = zipf.system;

  // The stage runs only the dense-eligible sets, in both forms: the
  // sparse span (as stored in the CSR) and a BitsetCSR row.
  BitsetCSR csr(n);
  std::vector<uint32_t> dense_ids;
  uint64_t span_elems = 0;
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    if (!ShouldStoreDense(system.SetSize(s), n)) continue;
    csr.AddRow(system.GetSet(s));
    dense_ids.push_back(s);
    span_elems += system.SetSize(s);
  }
  if (dense_ids.empty()) {
    std::fprintf(stderr, "dense stage: no dense-eligible sets\n");
    return false;
  }
  const DynamicBitset live = MakeLiveMask(n);
  const double total_elems = static_cast<double>(span_elems) *
                             static_cast<double>(rounds);

  // Fused count: popcount(row & mask) vs the span's masked popcount.
  DenseStats count_word, count_dense;
  {
    WallTimer timer;
    for (uint64_t r = 0; r < rounds; ++r) {
      for (uint32_t id : dense_ids) {
        count_word.checksum += CountUncovered(system.GetSet(id), live);
      }
    }
    count_word.seconds = timer.ElapsedSeconds();
    count_word.melems_per_sec = total_elems / count_word.seconds / 1e6;
  }
  {
    WallTimer timer;
    for (uint64_t r = 0; r < rounds; ++r) {
      for (uint32_t row = 0; row < csr.rows(); ++row) {
        count_dense.checksum += CountUncoveredDense(csr.Row(row), live);
      }
    }
    count_dense.seconds = timer.ElapsedSeconds();
    count_dense.melems_per_sec = total_elems / count_dense.seconds / 1e6;
  }

  // Fused mark: mask &= ~row vs the span's clear loop, restored to the
  // pristine mask per round (covered bits are a subset, so OrInto is an
  // exact reset).
  DenseStats mark_word, mark_dense;
  {
    DynamicBitset working = live;
    WallTimer timer;
    for (uint64_t r = 0; r < rounds; ++r) {
      for (uint32_t id : dense_ids) {
        mark_word.checksum += MarkCovered(system.GetSet(id), working);
      }
      live.OrInto(working);
    }
    mark_word.seconds = timer.ElapsedSeconds();
    mark_word.melems_per_sec = total_elems / mark_word.seconds / 1e6;
  }
  {
    DynamicBitset working = live;
    WallTimer timer;
    for (uint64_t r = 0; r < rounds; ++r) {
      for (uint32_t row = 0; row < csr.rows(); ++row) {
        mark_dense.checksum += MarkCoveredDense(csr.Row(row), working);
      }
      live.OrInto(working);
    }
    mark_dense.seconds = timer.ElapsedSeconds();
    mark_dense.melems_per_sec = total_elems / mark_dense.seconds / 1e6;
  }

  if (count_word.checksum != count_dense.checksum ||
      mark_word.checksum != mark_dense.checksum) {
    std::fprintf(stderr,
                 "dense stage: checksum mismatch (count %llu/%llu, mark "
                 "%llu/%llu)\n",
                 static_cast<unsigned long long>(count_word.checksum),
                 static_cast<unsigned long long>(count_dense.checksum),
                 static_cast<unsigned long long>(mark_word.checksum),
                 static_cast<unsigned long long>(mark_dense.checksum));
    return false;
  }

  benchutil::Banner(
      "Dense representation — fused bitset-row kernels (ISA: " +
      std::string(KernelIsaName(DetectKernelIsa())) +
      ") vs sparse word kernels on the zipf dense sets (n=" +
      std::to_string(n) + ", " + std::to_string(dense_ids.size()) +
      "/" + std::to_string(m) + " sets dense-eligible)");
  Table table({"kernel", "word Melem/s", "dense Melem/s", "speedup"});
  table.AddRow({"fused count", Table::Fmt(count_word.melems_per_sec, 1),
                Table::Fmt(count_dense.melems_per_sec, 1),
                Table::Fmt(count_dense.melems_per_sec /
                               count_word.melems_per_sec,
                           2) +
                    "x"});
  table.AddRow({"fused mark", Table::Fmt(mark_word.melems_per_sec, 1),
                Table::Fmt(mark_dense.melems_per_sec, 1),
                Table::Fmt(mark_dense.melems_per_sec /
                               mark_word.melems_per_sec,
                           2) +
                    "x"});
  table.Print(std::cout);

  *dense_json = JsonValue::Object();
  dense_json->Set("n", static_cast<uint64_t>(n));
  dense_json->Set("m", static_cast<uint64_t>(m));
  dense_json->Set("alpha", alpha);
  dense_json->Set("max_set_size", static_cast<uint64_t>(max_set_size));
  dense_json->Set("dense_sets", static_cast<uint64_t>(dense_ids.size()));
  dense_json->Set("words_per_row",
                  static_cast<uint64_t>(csr.words_per_row()));
  dense_json->Set("rounds", rounds);
  dense_json->Set("count", DenseAbJson(count_word, count_dense));
  dense_json->Set("mark", DenseAbJson(mark_word, mark_dense));
  dense_json->Set("checksums_equal", true);
  return true;
}

/// VmHWM from /proc/self/status, in KiB; 0 where unavailable.
uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<uint64_t>(std::atoll(line.c_str() + 6));
    }
  }
  return 0;
}

JsonValue DispatchJson(const DispatchStats& stats) {
  JsonValue v = JsonValue::Object();
  v.Set("seconds", stats.seconds);
  v.Set("sets_per_sec", stats.sets_per_sec);
  v.Set("ns_per_element", stats.ns_per_element);
  v.Set("projections_stored", stats.stored);
  return v;
}

int Run(const std::string& json_path, uint32_t consumers, uint64_t rounds,
        uint32_t threads, uint64_t scan_m) {
  benchutil::Banner(
      "Hot path — SetView/arena dispatch "
      "(fig11 planted n=2000, m=4000, " +
      std::to_string(consumers) + " consumers x " +
      std::to_string(rounds) + " rounds, threads=" +
      std::to_string(threads) + ")");

  WorkloadParams params;
  params.n = kN;
  params.m = kM;
  params.k = kOpt;
  params.seed = kSeed;
  std::string error;
  std::optional<Instance> instance = MakeWorkload("planted", params, &error);
  if (!instance.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const DynamicBitset live = MakeLiveMask(kN);
  // Threshold sized like a mid-run Size Test: most projections stay
  // light and get stored.
  const size_t threshold = kN / (2 * kOpt);

  // Untimed warmup so the timed run measures steady-state capacity, not
  // first-touch page faults.
  RunDispatch(*instance, live, threshold, consumers, /*rounds=*/2, threads);
  const DispatchStats view_stats =
      RunDispatch(*instance, live, threshold, consumers, rounds, threads);

  Table table({"path", "sets/sec", "ns/element", "stored projections"});
  table.AddRow({"view (arena)",
                Table::Fmt(static_cast<uint64_t>(view_stats.sets_per_sec)),
                Table::Fmt(view_stats.ns_per_element, 2),
                Table::Fmt(view_stats.stored)});
  table.Print(std::cout);

  // --- Kernel A/B: reference loops vs the word-parallel kernels. ---
  const SetSystem* system = instance->materialized();
  if (system == nullptr) {
    std::fprintf(stderr, "planted workload unexpectedly not in memory\n");
    return 1;
  }
  LiveMask kernel_live(MakeLiveMask(kN));
  if (!VerifyKernelTwins(*system, kernel_live)) {
    std::fprintf(stderr,
                 "kernel twin mismatch: scalar and word filters disagree\n");
    return 1;
  }
  // The kernel loops are far cheaper than consumer dispatch, so give
  // them enough rounds to time stably.
  const uint64_t kernel_rounds = rounds * 10;
  // Untimed warmup, then scalar/word under identical conditions.
  RunFilterStage(*system, kernel_live, 2, FilterInto);
  const KernelStats filter_scalar = RunFilterStage(
      *system, kernel_live, kernel_rounds, reference::FilterInto);
  const KernelStats filter_word =
      RunFilterStage(*system, kernel_live, kernel_rounds, FilterInto);
  const KernelStats count_scalar = RunCountStage(
      *system, kernel_live, kernel_rounds, reference::CountUncovered);
  const KernelStats count_word =
      RunCountStage(*system, kernel_live, kernel_rounds, CountUncovered);
  const KernelStats mark_scalar = RunMarkStage(
      *system, kernel_live, kernel_rounds, reference::MarkCovered);
  const KernelStats mark_word =
      RunMarkStage(*system, kernel_live, kernel_rounds, MarkCovered);
  if (filter_scalar.kept != filter_word.kept ||
      count_scalar.kept != count_word.kept ||
      mark_scalar.kept != mark_word.kept) {
    std::fprintf(stderr,
                 "kernel checksum mismatch: the twins did not do identical "
                 "work\n");
    return 1;
  }
  Table kernel_table(
      {"kernel", "scalar Melem/s", "word Melem/s", "speedup"});
  kernel_table.AddRow(
      {"masked filter", Table::Fmt(filter_scalar.melems_per_sec, 1),
       Table::Fmt(filter_word.melems_per_sec, 1),
       Table::Fmt(filter_word.melems_per_sec / filter_scalar.melems_per_sec,
                  2) +
           "x"});
  kernel_table.AddRow(
      {"masked popcount", Table::Fmt(count_scalar.melems_per_sec, 1),
       Table::Fmt(count_word.melems_per_sec, 1),
       Table::Fmt(count_word.melems_per_sec / count_scalar.melems_per_sec,
                  2) +
           "x"});
  kernel_table.AddRow(
      {"masked mark", Table::Fmt(mark_scalar.melems_per_sec, 1),
       Table::Fmt(mark_word.melems_per_sec, 1),
       Table::Fmt(mark_word.melems_per_sec / mark_scalar.melems_per_sec,
                  2) +
           "x"});
  kernel_table.Print(std::cout);

  // --- Disk path: text vs binary-mmap vs in-memory scans. ---
  JsonValue scan_json;
  if (!RunScanStage(scan_m, kSeed, &scan_json)) return 1;

  // --- Dense representation: fused bitset-row kernels vs word spans. ---
  JsonValue dense_json;
  if (!RunDenseStage(rounds * 10, kSeed, &dense_json)) return 1;

  // One timed full solver run for correctness context in the trajectory.
  RunOptions options;
  options.sample_constant = 0.05;
  WallTimer solver_timer;
  RunResult iter = RunSolver("iter", *instance, options);
  const double solver_ms = solver_timer.ElapsedMillis();
  if (!iter.ok() || !iter.success) {
    std::fprintf(stderr, "iter run failed: %s\n", iter.error.c_str());
    return 1;
  }
  benchutil::Note(
      "iter: cover=" + std::to_string(iter.cover.size()) +
      " passes=" + std::to_string(iter.passes) +
      " phys_scans=" + std::to_string(iter.physical_scans) +
      " space_words=" + std::to_string(iter.space_words) +
      " projection_words_peak=" + std::to_string(iter.projection_words_peak) +
      " wall_ms=" + Table::Fmt(solver_ms, 1));
  const uint64_t rss_kb = PeakRssKb();
  benchutil::Note("peak RSS: " + std::to_string(rss_kb) + " KiB");

  if (!json_path.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("schema", "streamcover.bench_hotpath.v6");
    // What the dense kernels dispatch to on this host — keeps the
    // trajectory's absolute numbers interpretable across runners.
    JsonValue cpu = JsonValue::Object();
    cpu.Set("isa", KernelIsaName(DetectKernelIsa()));
    bool has_avx2 = false, has_avx512 = false;
    for (KernelIsa isa : SupportedKernelIsas()) {
      if (isa == KernelIsa::kAvx2) has_avx2 = true;
      if (isa == KernelIsa::kAvx512) has_avx512 = true;
    }
    cpu.Set("avx2", has_avx2);
    cpu.Set("avx512", has_avx512);
    // Interprets the pipelined-scan numbers: on a 1-hardware-thread
    // host the decode pool cannot overlap and the speedup reads < 1.
    cpu.Set("hardware_threads",
            static_cast<uint64_t>(std::thread::hardware_concurrency()));
    doc.Set("cpu", std::move(cpu));
    JsonValue p = JsonValue::Object();
    p.Set("workload", "planted");
    p.Set("n", static_cast<uint64_t>(kN));
    p.Set("m", static_cast<uint64_t>(kM));
    p.Set("k", static_cast<uint64_t>(kOpt));
    p.Set("seed", kSeed);
    p.Set("consumers", static_cast<uint64_t>(consumers));
    p.Set("rounds", rounds);
    p.Set("threads", static_cast<uint64_t>(threads));
    p.Set("scan_m", scan_m);
    doc.Set("params", std::move(p));
    JsonValue dispatch = JsonValue::Object();
    dispatch.Set("view_path", DispatchJson(view_stats));
    doc.Set("dispatch", std::move(dispatch));
    JsonValue kernels = JsonValue::Object();
    kernels.Set("rounds", kernel_rounds);
    kernels.Set("filter", KernelAbJson(filter_scalar, filter_word));
    kernels.Set("count", KernelAbJson(count_scalar, count_word));
    kernels.Set("mark", KernelAbJson(mark_scalar, mark_word));
    doc.Set("kernels", std::move(kernels));
    doc.Set("scan", std::move(scan_json));
    doc.Set("dense", std::move(dense_json));
    JsonValue solver = JsonValue::Object();
    solver.Set("solver", "iter");
    solver.Set("success", iter.success);
    solver.Set("cover", static_cast<uint64_t>(iter.cover.size()));
    solver.Set("passes", iter.passes);
    solver.Set("sequential_scans", iter.sequential_scans);
    solver.Set("physical_scans", iter.physical_scans);
    solver.Set("space_words", iter.space_words);
    solver.Set("projection_words_peak", iter.projection_words_peak);
    solver.Set("wall_ms", solver_ms);
    doc.Set("solver", std::move(solver));
    doc.Set("peak_rss_kb", rss_kb);
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << doc.Dump(2) << '\n';
    benchutil::Note("wrote " + json_path);
  }
  return 0;
}

}  // namespace
}  // namespace streamcover

namespace {

/// In-process check of the strict flag parser: every malformed or
/// non-positive spelling that atoi/atoll used to coerce must now be
/// rejected. Run by CI before the timed stages.
int SelfTest() {
  uint64_t v = 0;
  for (const char* bad : {"0", "-3", "abc", "20q0", ""}) {
    if (streamcover::benchutil::ParsePositiveInt("--scan-m", bad, &v)) {
      std::fprintf(stderr, "selftest: accepted bad value '%s'\n", bad);
      return 1;
    }
  }
  if (!streamcover::benchutil::ParsePositiveInt("--scan-m", "123", &v) ||
      v != 123) {
    std::fprintf(stderr, "selftest: rejected valid value '123'\n");
    return 1;
  }
  std::printf("bench_hotpath selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Stable default path so the per-PR trajectory accumulates in one
  // place (CI uploads it as an artifact).
  std::string json_path = "BENCH_hotpath.json";
  uint64_t consumers = 12;
  uint64_t rounds = 12;
  uint64_t threads = 1;
  // Sets in the scan-stage instance; 10^7 is the paper-scale
  // acceptance run, the default keeps CI fast.
  uint64_t scan_m = 200000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: bench_hotpath [--json FILE] [--consumers N] "
                     "[--rounds N] [--threads N] [--scan-m N] "
                     "[--selftest]  (missing value for %s)\n",
                     flag);
        std::exit(1);
      }
      return argv[++i];
    };
    // Every count flag is strictly parsed and must be positive: the
    // old atoi/atoll path read `--scan-m 0` (and any malformed value)
    // as zero and fed a zero set count into the scan stage.
    if (arg == "--json") {
      json_path = next("--json");
    } else if (arg == "--consumers") {
      if (!streamcover::benchutil::ParsePositiveInt(
              "--consumers", next("--consumers"), &consumers)) {
        return 1;
      }
    } else if (arg == "--rounds") {
      if (!streamcover::benchutil::ParsePositiveInt(
              "--rounds", next("--rounds"), &rounds)) {
        return 1;
      }
    } else if (arg == "--threads") {
      if (!streamcover::benchutil::ParsePositiveInt(
              "--threads", next("--threads"), &threads)) {
        return 1;
      }
    } else if (arg == "--scan-m") {
      if (!streamcover::benchutil::ParsePositiveInt(
              "--scan-m", next("--scan-m"), &scan_m)) {
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_hotpath [--json FILE] [--consumers N] "
                   "[--rounds N] [--threads N] [--scan-m N] "
                   "[--selftest]\n");
      return 1;
    }
  }
  return streamcover::Run(json_path, static_cast<uint32_t>(consumers),
                          rounds, static_cast<uint32_t>(threads), scan_m);
}
