// The consumers' half of the scan-filter contract
// (ScanConsumer::needs, stream/pass_scheduler.h): OnSet is a no-op on
// every set a consumer's filter leaves out. A source that delivers ONLY
// the sets the scan's filter names — the narrowest delivery the
// ScanFilter contract allows — must therefore leave every solver's
// result unchanged. Every registry solver runs over that source and
// over the plain in-memory source, on planted, sparse, zipf and
// greedy-adversarial instances (and geom on a disk instance), at
// scheduler threads 1 and 4; every RunResult field but the wall clocks
// must agree. A consumer that declares too narrow a filter loses a set
// it acts on here and changes its result.
//
// The decoder's half: on a binary file, a chunk that already decoded
// cleanly and holds no named set becomes an empty batch without a byte
// of it read (stream/pipelined_scan.h), while a first scan still
// validates every body and a fired token still stops the scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/solver_registry.h"
#include "geometry/geom_generators.h"
#include "reference_decode.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "stream/mmap_set_source.h"
#include "stream/pass_scheduler.h"
#include "stream/pipelined_scan.h"
#include "stream/set_source.h"
#include "stream/set_stream.h"
#include "util/cancel_token.h"
#include "util/rng.h"

namespace streamcover {
namespace {

/// Delivers only the sets the armed scan filter names; every set
/// without one. Counts the sets it held back.
class NamedSetsOnlySource final : public SetSource {
 public:
  explicit NamedSetsOnlySource(const SetSystem* system) : inner_(system) {}

  uint32_t num_elements() const override { return inner_.num_elements(); }
  uint32_t num_sets() const override { return inner_.num_sets(); }
  uint32_t max_set_size() const override { return inner_.max_set_size(); }

  bool ScanBatches(const SetBatchVisitor& visit) override {
    if (!BeginScan()) return false;
    const ScanFilter* filter = scan_filter();
    return inner_.ScanBatches([&](std::span<const SetView> sets) {
      named_.clear();
      for (const SetView& set : sets) {
        if (filter == nullptr || filter->Names(set.id, set.size())) {
          named_.push_back(set);
        } else {
          ++held_back_;
        }
      }
      visit(named_);
    });
  }

  uint64_t held_back() const { return held_back_; }

 private:
  InMemorySetSource inner_;
  std::vector<SetView> named_;
  uint64_t held_back_ = 0;
};

/// One registry run over `source`, built the way RunSolver builds it.
RunResult RunOver(const SolverRegistry::Entry& entry, SetSource& source,
                  const GeomDataset* geometry, const RunOptions& options) {
  SetStream stream(&source);
  PassScheduler scheduler(stream, options.threads);
  RunContext ctx{stream, scheduler, geometry, options};
  RunResult result = entry.run(ctx);
  EXPECT_EQ(stream.error(), "");
  return result;
}

/// Every RunResult field a solver fills, except the wall clocks.
void ExpectSameResult(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.cover.set_ids, b.cover.set_ids);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.sequential_scans, b.sequential_scans);
  EXPECT_EQ(a.physical_scans, b.physical_scans);
  EXPECT_EQ(a.space_words, b.space_words);
  EXPECT_EQ(a.projection_words_peak, b.projection_words_peak);
  EXPECT_EQ(a.gain_updates, b.gain_updates);
  EXPECT_EQ(a.sets_touched, b.sets_touched);
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (size_t i = 0; i < a.shard_stats.size(); ++i) {
    EXPECT_EQ(a.shard_stats[i].shard, b.shard_stats[i].shard);
    EXPECT_EQ(a.shard_stats[i].sets_seen, b.shard_stats[i].sets_seen);
    EXPECT_EQ(a.shard_stats[i].candidates, b.shard_stats[i].candidates);
    EXPECT_EQ(a.shard_stats[i].inserts, b.shard_stats[i].inserts);
    EXPECT_EQ(a.shard_stats[i].work_items, b.shard_stats[i].work_items);
  }
  EXPECT_EQ(a.merge_stats.candidates, b.merge_stats.candidates);
  EXPECT_EQ(a.merge_stats.duplicates_dropped,
            b.merge_stats.duplicates_dropped);
  EXPECT_EQ(a.merge_stats.picked, b.merge_stats.picked);
}

/// The option sets every solver runs under: the defaults, and a
/// partial cover over four sieve passes (the sieve then declares "none"
/// once its target is met).
std::vector<RunOptions> OptionSets(uint32_t threads) {
  RunOptions plain;
  plain.seed = 5;
  plain.sample_constant = 0.1;
  plain.threads = threads;
  RunOptions partial = plain;
  partial.threshold_passes = 4;
  partial.coverage_fraction = 0.8;
  partial.shards = 3;
  return {plain, partial};
}

/// Runs every solver of `kind` on `system` through both sources and
/// compares (offline_exact only if `with_exact`); returns the sets the
/// filtering source held back in all.
uint64_t CompareSolvers(const SetSystem& system, const GeomDataset* geometry,
                        SolverRegistry::Kind kind, bool with_exact = true) {
  uint64_t held_back = 0;
  for (const SolverRegistry::Entry* entry :
       SolverRegistry::Global().Entries()) {
    if ((entry->kind == SolverRegistry::Kind::kGeometric) !=
            (kind == SolverRegistry::Kind::kGeometric) ||
        (entry->name == "offline_exact" && !with_exact)) {
      continue;
    }
    for (uint32_t threads : {1u, 4u}) {
      for (const RunOptions& options : OptionSets(threads)) {
        SCOPED_TRACE(entry->name + " threads=" + std::to_string(threads) +
                     " p=" + std::to_string(options.threshold_passes));
        InMemorySetSource plain(&system);
        NamedSetsOnlySource named(&system);
        const RunResult want = RunOver(*entry, plain, geometry, options);
        const RunResult got = RunOver(*entry, named, geometry, options);
        ExpectSameResult(got, want);
        held_back += named.held_back();
      }
    }
  }
  return held_back;
}

TEST(FilteredScanTest, EverySolverIgnoresTheSetsItsFilterLeavesOut) {
  std::vector<std::pair<std::string, SetSystem>> shapes;
  for (uint64_t seed : {1u, 2u}) {
    Rng rng(seed);
    PlantedOptions planted;
    planted.num_elements = 240;
    planted.num_sets = 480;
    planted.cover_size = 8;
    planted.noise_max_size = 30;
    shapes.emplace_back("planted", GeneratePlanted(planted, rng).system);
    // Sets of at most 8 = ceil(400^(1/3)) elements: the sieve's second
    // pass (p = 2) takes sets of exactly its size floor, so a floor one
    // too high changes the cover.
    shapes.emplace_back("sparse", GenerateSparse(400, 900, 8, rng).system);
    shapes.emplace_back("zipf", GenerateZipf(300, 700, 1.1, 60, rng).system);
  }
  shapes.emplace_back("adversarial", GenerateGreedyAdversarial(7).system);
  uint64_t held_back = 0;
  for (const auto& [name, system] : shapes) {
    SCOPED_TRACE(name);
    // offline_exact reads every set in one unfiltered pass, and its
    // branch-and-bound takes minutes on the sparse shape.
    held_back += CompareSolvers(system, nullptr,
                                SolverRegistry::Kind::kStreaming,
                                /*with_exact=*/name != "sparse");
  }
  // The comparison only means something if filters held sets back.
  EXPECT_GT(held_back, 0u);
}

TEST(FilteredScanTest, GeometricSolverIgnoresTheSetsItsFilterLeavesOut) {
  Rng rng(3);
  GeomPlantedOptions options;
  options.num_points = 300;
  options.num_shapes = 600;
  options.cover_size = 6;
  Instance instance = Instance::FromGeometry(
      GeneratePlantedGeom(options, rng), {"disks", "geom"});
  instance.Prepare();
  ASSERT_NE(instance.materialized(), nullptr);
  CompareSolvers(*instance.materialized(), instance.geometry(),
                 SolverRegistry::Kind::kGeometric);
}

// --- The binary decoder: whole-chunk skips --------------------------------

/// A sparse system (sets of 1..32 elements) and its binary image.
struct BinaryFile {
  SetSystem system;
  std::string path;
  std::string image;
};

BinaryFile MakeBinaryFile(const std::string& name) {
  Rng rng(21);
  BinaryFile file;
  file.system = GenerateSparse(2000, 6000, 32, rng).system;
  file.path = ::testing::TempDir() + "/" + name;
  std::string error;
  EXPECT_TRUE(WriteBinarySetSystem(file.system, file.path, &error)) << error;
  std::ifstream is(file.path, std::ios::binary);
  file.image.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>{});
  return file;
}

/// One scan of `scanner` under `filter`: the ids and elements it
/// delivered, in order.
struct Delivered {
  std::vector<uint32_t> ids;
  std::vector<std::vector<uint32_t>> sets;
};

bool RunScan(PipelinedScanner& scanner, const ScanFilter* filter,
             Delivered* out, std::string* error) {
  return scanner.Run(
      "image",
      [&](std::span<const SetView> views) {
        for (const SetView& set : views) {
          out->ids.push_back(set.id);
          out->sets.emplace_back(set.begin(), set.end());
        }
      },
      /*cancel=*/nullptr, error, filter);
}

TEST(FilteredScanTest, CleanChunksAboveTheSizeBoundAreSkippedWhole) {
  const BinaryFile file = MakeBinaryFile("skip_whole.bin");
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("scan_threads=" + std::to_string(threads));
    std::string error;
    auto source = MmapSetSource::Open(file.path, &error);
    ASSERT_TRUE(source.has_value()) << error;
    source->set_scan_threads(threads);
    ASSERT_TRUE(source->Scan([](const SetView&) {})) << source->error();
    const ScanFilter above_bound{source->max_set_size() + 1};
    source->set_scan_filter(&above_bound);
    size_t delivered = 0;
    ASSERT_TRUE(source->Scan([&](const SetView&) { ++delivered; }))
        << source->error();
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(source->scans(), 2u);  // a skipped scan is still a scan

    // The skip reads no byte of a clean chunk: once every body byte is
    // overwritten with a continuation byte, the skipping scan still
    // succeeds, and only a scan that reads the bodies sees the damage.
    std::string image = file.image;
    const uint8_t* data = reinterpret_cast<const uint8_t*>(image.data());
    const binfmt::BinaryLayout layout = reference::ImageLayout(image);
    const std::vector<binfmt::ScanChunk> chunks =
        binfmt::BuildChunkPlan(layout, /*target_bytes=*/1024);
    ASSERT_GT(chunks.size(), 16u);
    PipelinedScanner scanner(data, layout.n, layout,
                             std::span<const binfmt::ScanChunk>(chunks),
                             threads);
    Delivered clean;
    ASSERT_TRUE(RunScan(scanner, nullptr, &clean, &error)) << error;
    ASSERT_EQ(clean.sets.size(), file.system.num_sets());
    std::fill(image.begin() + binfmt::kHeaderBytes,
              image.begin() + static_cast<ptrdiff_t>(layout.footer_offset),
              static_cast<char>(0xFF));
    Delivered skipped;
    EXPECT_TRUE(RunScan(scanner, &above_bound, &skipped, &error)) << error;
    EXPECT_TRUE(skipped.ids.empty());
    Delivered unfiltered;
    EXPECT_FALSE(RunScan(scanner, nullptr, &unfiltered, &error));
    EXPECT_EQ(error, "image: corrupt set 0: bad size varint");
  }
}

TEST(FilteredScanTest, IdFilterDeliversTheNamedSetsOfOneChunk) {
  const BinaryFile file = MakeBinaryFile("skip_ids.bin");
  const uint8_t* data = reinterpret_cast<const uint8_t*>(file.image.data());
  const binfmt::BinaryLayout layout = reference::ImageLayout(file.image);
  const std::vector<binfmt::ScanChunk> chunks =
      binfmt::BuildChunkPlan(layout, /*target_bytes=*/1024);
  ASSERT_GT(chunks.size(), 16u);
  // Two sets of one chunk in the middle of the file, neither its first.
  const binfmt::ScanChunk& chunk = chunks[chunks.size() / 2];
  ASSERT_GE(chunk.set_count, 4u);
  const uint32_t a = chunk.first_set + 1;
  const uint32_t b = chunk.first_set + chunk.set_count - 1;
  DynamicBitset ids(file.system.num_sets());
  ids.Set(a);
  ids.Set(b);
  const ScanFilter named{UINT32_MAX, &ids};
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("scan_threads=" + std::to_string(threads));
    PipelinedScanner scanner(data, layout.n, layout,
                             std::span<const binfmt::ScanChunk>(chunks),
                             threads);
    std::string error;
    Delivered clean;
    ASSERT_TRUE(RunScan(scanner, nullptr, &clean, &error)) << error;
    Delivered got;
    ASSERT_TRUE(RunScan(scanner, &named, &got, &error)) << error;
    EXPECT_EQ(got.ids, (std::vector<uint32_t>{a, b}));
    ASSERT_EQ(got.sets.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      const auto want = file.system.GetSet(got.ids[i]);
      EXPECT_EQ(got.sets[i], std::vector<uint32_t>(want.begin(), want.end()));
    }
  }
}

TEST(FilteredScanTest, FirstScanOfACorruptFileFailsLikeTheReference) {
  const BinaryFile file = MakeBinaryFile("skip_corrupt_src.bin");
  const binfmt::BinaryLayout layout = reference::ImageLayout(file.image);
  // A mid-file set claims 2^35 elements: only a decode of its body can
  // tell, and a filter naming no set would skip its chunk once clean.
  std::string image = file.image;
  const uint64_t at = layout.SetOffset(layout.m / 2);
  for (uint64_t i = 0; i < 5; ++i) image[at + i] = static_cast<char>(0xFF);
  const std::string bad = ::testing::TempDir() + "/skip_corrupt.bin";
  {
    std::ofstream os(bad, std::ios::binary);
    os << image;
  }
  const reference::Decoded expect = reference::ReferenceDecode(image);
  ASSERT_NE(expect.error, "");
  const ScanFilter none{UINT32_MAX};
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("scan_threads=" + std::to_string(threads));
    std::string error;
    auto source = MmapSetSource::Open(bad, &error);
    ASSERT_TRUE(source.has_value()) << error;
    source->set_scan_threads(threads);
    source->set_scan_filter(&none);
    EXPECT_FALSE(source->Scan([](const SetView&) {}));
    EXPECT_EQ(source->error(), bad + ": " + expect.error);
  }
}

TEST(FilteredScanTest, FiredTokenFailsAFullySkippableScan) {
  const BinaryFile file = MakeBinaryFile("skip_cancel.bin");
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("scan_threads=" + std::to_string(threads));
    std::string error;
    auto source = MmapSetSource::Open(file.path, &error);
    ASSERT_TRUE(source.has_value()) << error;
    source->set_scan_threads(threads);
    ASSERT_TRUE(source->Scan([](const SetView&) {})) << source->error();
    const ScanFilter none{UINT32_MAX};
    source->set_scan_filter(&none);
    CancelToken expired = CancelToken::AfterMillis(0);
    source->set_cancel(&expired);
    EXPECT_FALSE(source->Scan([](const SetView&) {}));
    EXPECT_EQ(source->error(), kDeadlineExceededError);
  }
}

}  // namespace
}  // namespace streamcover
