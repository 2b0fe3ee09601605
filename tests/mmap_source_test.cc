// Tests for MmapSetSource: Open-time structural validation through the
// offsets footer, scan parity with the in-memory and text sources,
// graceful sticky errors on corrupt bodies, move semantics, and the
// OpenDiskSetSource magic-sniffing factory.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/iter_set_cover.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "stream/mmap_set_source.h"
#include "stream/pipelined_scan.h"
#include "stream/set_source.h"
#include "stream/set_stream.h"
#include "util/cancel_token.h"
#include "util/rng.h"

namespace streamcover {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

PlantedInstance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  PlantedOptions options;
  options.num_elements = 150;
  options.num_sets = 300;
  options.cover_size = 6;
  return GeneratePlanted(options, rng);
}

std::string WriteBinary(const SetSystem& system, const std::string& name) {
  const std::string path = TempPath(name);
  std::string error;
  EXPECT_TRUE(WriteBinarySetSystem(system, path, &error)) << error;
  return path;
}

TEST(MmapSetSourceTest, OpenRejectsMissingTruncatedAndTextFiles) {
  std::string error;
  EXPECT_FALSE(MmapSetSource::Open(TempPath("no_such.bin"), &error)
                   .has_value());
  EXPECT_FALSE(error.empty());

  PlantedInstance inst = MakeInstance(1);
  const std::string bin = WriteBinary(inst.system, "mmap_trunc_src.bin");
  std::ifstream is(bin, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>{});
  const std::string cut = TempPath("mmap_trunc.bin");
  {
    std::ofstream os(cut, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() - 16));
  }
  error.clear();
  EXPECT_FALSE(MmapSetSource::Open(cut, &error).has_value());
  EXPECT_FALSE(error.empty());

  const std::string txt = TempPath("mmap_not_binary.txt");
  {
    std::ofstream os(txt);
    os << "setcover 3 1\n1 0\n";
  }
  error.clear();
  EXPECT_FALSE(MmapSetSource::Open(txt, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(MmapSetSourceTest, ScanMatchesInMemorySource) {
  PlantedInstance inst = MakeInstance(2);
  const std::string bin = WriteBinary(inst.system, "mmap_parity.bin");
  std::string error;
  auto source = MmapSetSource::Open(bin, &error);
  ASSERT_TRUE(source.has_value()) << error;
  EXPECT_EQ(source->num_elements(), inst.system.num_elements());
  EXPECT_EQ(source->num_sets(), inst.system.num_sets());
  EXPECT_EQ(source->nnz(), inst.system.total_size());

  std::vector<std::vector<uint32_t>> sets;
  ASSERT_TRUE(source->Scan([&](const SetView& set) {
    EXPECT_EQ(set.id, sets.size());
    sets.emplace_back(set.begin(), set.end());
  }));
  ASSERT_EQ(sets.size(), inst.system.num_sets());
  for (uint32_t s = 0; s < inst.system.num_sets(); ++s) {
    auto expect = inst.system.GetSet(s);
    ASSERT_EQ(sets[s],
              std::vector<uint32_t>(expect.begin(), expect.end()))
        << "set " << s;
    // The sorted-unique dispatch invariant the kernels rely on.
    ASSERT_TRUE(std::is_sorted(sets[s].begin(), sets[s].end()));
    ASSERT_EQ(std::adjacent_find(sets[s].begin(), sets[s].end()),
              sets[s].end());
  }
  EXPECT_EQ(source->scans(), 1u);
  size_t total = 0;
  ASSERT_TRUE(
      source->Scan([&](const SetView& set) { total += set.size(); }));
  EXPECT_EQ(total, inst.system.total_size());
  EXPECT_EQ(source->scans(), 2u);
}

TEST(MmapSetSourceTest, CorruptBodyFailsScanGracefullyAndStays) {
  PlantedInstance inst = MakeInstance(3);
  const std::string bin = WriteBinary(inst.system, "mmap_corrupt_src.bin");
  std::ifstream is(bin, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>{});
  // A size varint of ~2^35 in the first set: structurally the footer
  // still lines up, but decode must fail (size > n) without aborting.
  for (size_t i = 0; i < 5; ++i) {
    bytes[binfmt::kHeaderBytes + i] = static_cast<char>(0xFF);
  }
  const std::string bad = TempPath("mmap_corrupt.bin");
  {
    std::ofstream os(bad, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::string error;
  auto source = MmapSetSource::Open(bad, &error);
  // Open only checks structure; the corruption is a body-level fault.
  ASSERT_TRUE(source.has_value()) << error;
  size_t visited = 0;
  EXPECT_FALSE(source->Scan([&](const SetView&) { ++visited; }));
  EXPECT_FALSE(source->error().empty());
  EXPECT_NE(source->error().find("corrupt set"), std::string::npos)
      << source->error();
  // Sticky: the next scan refuses immediately and visits nothing.
  visited = 0;
  EXPECT_FALSE(source->Scan([&](const SetView&) { ++visited; }));
  EXPECT_EQ(visited, 0u);
}

TEST(MmapSetSourceTest, MoveTransfersMappingAndScansStillWork) {
  PlantedInstance inst = MakeInstance(4);
  const std::string bin = WriteBinary(inst.system, "mmap_move.bin");
  std::string error;
  auto source = MmapSetSource::Open(bin, &error);
  ASSERT_TRUE(source.has_value()) << error;
  MmapSetSource moved = std::move(*source);
  size_t total = 0;
  ASSERT_TRUE(moved.Scan([&](const SetView& set) { total += set.size(); }));
  EXPECT_EQ(total, inst.system.total_size());

  MmapSetSource assigned = std::move(moved);
  total = 0;
  ASSERT_TRUE(
      assigned.Scan([&](const SetView& set) { total += set.size(); }));
  EXPECT_EQ(total, inst.system.total_size());
}

TEST(MmapSetSourceTest, IterSetCoverIdenticalFromMmapAndMemory) {
  PlantedInstance inst = MakeInstance(5);
  const std::string bin = WriteBinary(inst.system, "mmap_solve.bin");

  IterSetCoverOptions algo;
  algo.delta = 0.5;
  algo.seed = 11;

  SetStream memory_stream(&inst.system);
  StreamingResult from_memory = IterSetCover(memory_stream, algo);

  std::string error;
  auto source = MmapSetSource::Open(bin, &error);
  ASSERT_TRUE(source.has_value()) << error;
  SetStream mmap_stream(&*source);
  StreamingResult from_mmap = IterSetCover(mmap_stream, algo);

  ASSERT_TRUE(from_memory.success);
  ASSERT_TRUE(from_mmap.success);
  EXPECT_EQ(from_memory.cover.set_ids, from_mmap.cover.set_ids);
  EXPECT_EQ(from_memory.passes, from_mmap.passes);
}

TEST(OpenDiskSetSourceTest, SniffsMagicAndPicksTheRightBackend) {
  PlantedInstance inst = MakeInstance(6);
  const std::string bin = WriteBinary(inst.system, "factory.bin");
  const std::string txt = TempPath("factory.txt");
  ASSERT_TRUE(SaveSetSystemToFile(inst.system, txt));

  std::string error;
  std::unique_ptr<SetSource> from_bin = OpenDiskSetSource(bin, &error);
  ASSERT_NE(from_bin, nullptr) << error;
  EXPECT_NE(dynamic_cast<MmapSetSource*>(from_bin.get()), nullptr);

  std::unique_ptr<SetSource> from_txt = OpenDiskSetSource(txt, &error);
  ASSERT_NE(from_txt, nullptr) << error;
  EXPECT_NE(dynamic_cast<FileSetSource*>(from_txt.get()), nullptr);

  // Same logical instance through both backends.
  size_t bin_total = 0, txt_total = 0;
  ASSERT_TRUE(from_bin->Scan(
      [&](const SetView& set) { bin_total += set.size(); }));
  ASSERT_TRUE(from_txt->Scan(
      [&](const SetView& set) { txt_total += set.size(); }));
  EXPECT_EQ(bin_total, inst.system.total_size());
  EXPECT_EQ(bin_total, txt_total);

  EXPECT_EQ(OpenDiskSetSource(TempPath("factory_missing.bin"), &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// --- The chunk decoder at 1 (inline) and more decode threads ---------

TEST(PipelinedScanTest, MatchesSerialOrderAndContentAcrossThreadCounts) {
  PlantedInstance inst = MakeInstance(7);
  const std::string bin = WriteBinary(inst.system, "pipe_parity.bin");
  std::vector<std::vector<uint32_t>> expect;
  for (uint32_t s = 0; s < inst.system.num_sets(); ++s) {
    auto set = inst.system.GetSet(s);
    expect.emplace_back(set.begin(), set.end());
  }
  std::string error;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    auto source = MmapSetSource::Open(bin, &error);
    ASSERT_TRUE(source.has_value()) << error;
    source->set_scan_threads(threads);
    std::vector<std::vector<uint32_t>> sets;
    ASSERT_TRUE(source->Scan([&](const SetView& set) {
      ASSERT_EQ(set.id, sets.size()) << "out-of-order delivery";
      sets.emplace_back(set.begin(), set.end());
    })) << source->error();
    EXPECT_EQ(sets, expect) << "scan_threads=" << threads;
    EXPECT_EQ(source->scans(), 1u);

    // ScanBatches delivers the same pass as contiguous in-order batches.
    std::vector<std::vector<uint32_t>> batched;
    ASSERT_TRUE(source->ScanBatches([&](std::span<const SetView> views) {
      for (const SetView& set : views) {
        ASSERT_EQ(set.id, batched.size()) << "batch out of order";
        batched.emplace_back(set.begin(), set.end());
      }
    })) << source->error();
    EXPECT_EQ(batched, expect) << "scan_threads=" << threads;
    EXPECT_EQ(source->scans(), 2u);
  }
}

TEST(PipelinedScanTest, ManySmallChunksDeliverInOrder) {
  // Drive PipelinedScanner directly with a tiny chunk target so the
  // ring wraps many times — the multi-chunk ordering case the default
  // 256 KB plan never produces on test-sized instances.
  PlantedInstance inst = MakeInstance(8);
  const std::string bin = WriteBinary(inst.system, "pipe_chunks.bin");
  std::ifstream is(bin, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>{});
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  binfmt::BinaryLayout layout;
  std::string error;
  ASSERT_TRUE(
      binfmt::ValidateBinaryLayout(data, bytes.size(), &layout, &error))
      << error;
  const std::vector<binfmt::ScanChunk> chunks =
      binfmt::BuildChunkPlan(layout, /*target_bytes=*/64);
  ASSERT_GT(chunks.size(), 8u) << "chunk plan too coarse for this test";

  PipelinedScanner scanner(data, layout.n, layout,
                           std::span<const binfmt::ScanChunk>(chunks),
                           /*decode_threads=*/4);
  std::vector<std::vector<uint32_t>> sets;
  ASSERT_TRUE(scanner.Run(
      bin,
      [&](std::span<const SetView> views) {
        for (const SetView& set : views) {
          ASSERT_EQ(set.id, sets.size()) << "out-of-order chunk";
          sets.emplace_back(set.begin(), set.end());
        }
      },
      /*cancel=*/nullptr, &error))
      << error;
  ASSERT_EQ(sets.size(), inst.system.num_sets());
  for (uint32_t s = 0; s < inst.system.num_sets(); ++s) {
    auto expect = inst.system.GetSet(s);
    ASSERT_EQ(sets[s],
              std::vector<uint32_t>(expect.begin(), expect.end()))
        << "set " << s;
  }
}

TEST(PipelinedScanTest, CorruptVarintMatchesSerialDiagnosticAndSticks) {
  PlantedInstance inst = MakeInstance(9);
  const std::string bin = WriteBinary(inst.system, "pipe_corrupt_src.bin");
  std::ifstream is(bin, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>{});
  // Bit-flip the first set's size varint into a ~2^35 monster: the
  // footer still lines up, so the fault is decode-level.
  for (size_t i = 0; i < 5; ++i) {
    bytes[binfmt::kHeaderBytes + i] = static_cast<char>(0xFF);
  }
  const std::string bad = TempPath("pipe_corrupt.bin");
  {
    std::ofstream os(bad, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::string error;
    auto source = MmapSetSource::Open(bad, &error);
    ASSERT_TRUE(source.has_value()) << error;
    source->set_scan_threads(threads);
    size_t visited = 0;
    EXPECT_FALSE(source->Scan([&](const SetView&) { ++visited; }));
    EXPECT_EQ(visited, 0u) << "no partial batch before the fault";
    EXPECT_EQ(source->error(), bad + ": corrupt set 0: bad size varint");
    // Sticky: the next scan refuses immediately.
    EXPECT_FALSE(source->Scan([&](const SetView&) { ++visited; }));
    EXPECT_EQ(visited, 0u);
  }
}

TEST(PipelinedScanTest, MidChunkTruncationFailsGracefullyInOrder) {
  PlantedInstance inst = MakeInstance(10);
  const std::string bin = WriteBinary(inst.system, "pipe_trunc_src.bin");
  std::ifstream is(bin, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>{});
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  binfmt::BinaryLayout layout;
  std::string error;
  ASSERT_TRUE(
      binfmt::ValidateBinaryLayout(data, bytes.size(), &layout, &error))
      << error;
  // Bump a mid-file set's one-byte size varint by one: the body then
  // claims an element its slot does not hold — "truncated body", found
  // mid-chunk rather than at a chunk boundary.
  uint32_t corrupt_set = layout.m;  // sentinel: none found
  for (uint32_t s = static_cast<uint32_t>(layout.m) / 2; s < layout.m;
       ++s) {
    const uint8_t size_byte = data[layout.SetOffset(s)];
    if (size_byte >= 1 && size_byte < 0x7F &&
        size_byte + 1u <= layout.n) {
      corrupt_set = s;
      break;
    }
  }
  ASSERT_LT(corrupt_set, layout.m) << "no single-byte size varint found";
  bytes[layout.SetOffset(corrupt_set)] = static_cast<char>(
      static_cast<uint8_t>(bytes[layout.SetOffset(corrupt_set)]) + 1);
  const std::string bad = TempPath("pipe_trunc.bin");
  {
    std::ofstream os(bad, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto inline_decode = MmapSetSource::Open(bad, &error);
  ASSERT_TRUE(inline_decode.has_value()) << error;
  EXPECT_FALSE(inline_decode->Scan([](const SetView&) {}));
  EXPECT_NE(inline_decode->error().find("truncated body"), std::string::npos)
      << inline_decode->error();

  auto pipelined = MmapSetSource::Open(bad, &error);
  ASSERT_TRUE(pipelined.has_value()) << error;
  pipelined->set_scan_threads(4);
  EXPECT_FALSE(pipelined->Scan([&](const SetView& set) {
    EXPECT_LT(set.id, corrupt_set) << "set delivered past the fault";
  }));
  EXPECT_EQ(pipelined->error(), inline_decode->error());
}

TEST(PipelinedScanTest, CancelDuringDecodeReportsDeadline) {
  PlantedInstance inst = MakeInstance(11);
  const std::string bin = WriteBinary(inst.system, "pipe_cancel.bin");
  std::string error;
  auto source = MmapSetSource::Open(bin, &error);
  ASSERT_TRUE(source.has_value()) << error;
  source->set_scan_threads(4);
  CancelToken expired = CancelToken::AfterMillis(0);
  ASSERT_TRUE(expired.cancelled());
  source->set_cancel(&expired);
  EXPECT_FALSE(source->Scan([](const SetView&) {}));
  // The bare error *code*, with no path or set prefix — dispatchers
  // match it exactly (same contract as an inline scan).
  EXPECT_EQ(source->error(), kDeadlineExceededError);
}

TEST(PipelinedScanTest, ConcurrentForksScanPipelinedSoak) {
  // The TSan CI soak: several forks of one mapping, each running its
  // own pipelined pass concurrently. Forks share only the immutable
  // bytes; all ring state is per-fork.
  PlantedInstance inst = MakeInstance(12);
  const std::string bin = WriteBinary(inst.system, "pipe_forks.bin");
  std::string error;
  auto source = MmapSetSource::Open(bin, &error);
  ASSERT_TRUE(source.has_value()) << error;
  const uint64_t expect_total = inst.system.total_size();

  constexpr int kForks = 3;
  constexpr int kPassesPerFork = 4;
  std::vector<std::unique_ptr<SetSource>> forks;
  for (int f = 0; f < kForks; ++f) {
    forks.push_back(source->Fork(&error));
    ASSERT_NE(forks.back(), nullptr) << error;
    forks.back()->set_scan_threads(2 + f);
  }
  std::vector<std::thread> threads;
  std::vector<uint64_t> totals(kForks, 0);
  // Not vector<bool>: bit-packing would make per-fork writes race.
  std::vector<int> oks(kForks, 0);
  for (int f = 0; f < kForks; ++f) {
    threads.emplace_back([&, f] {
      bool ok = true;
      for (int pass = 0; pass < kPassesPerFork; ++pass) {
        totals[f] = 0;
        ok = ok && forks[f]->Scan([&](const SetView& set) {
          totals[f] += set.size();
        });
      }
      oks[f] = ok ? 1 : 0;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int f = 0; f < kForks; ++f) {
    EXPECT_TRUE(oks[f]) << "fork " << f << ": " << forks[f]->error();
    EXPECT_EQ(totals[f], expect_total) << "fork " << f;
  }
}

TEST(OpenDiskSetSourceTest, SurfacesBinaryValidatorErrorVerbatim) {
  // Valid magic + corrupt footer: the sniff says binary, so the binary
  // validator's diagnostic must come through verbatim — not be masked
  // by a text-parser fallback's "bad magic"-style wording.
  PlantedInstance inst = MakeInstance(13);
  const std::string bin = WriteBinary(inst.system, "factory_badfooter_src.bin");
  std::ifstream is(bin, std::ios::binary);
  std::string bytes(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>{});
  // Zero the last footer offset (the 8 bytes just before the end
  // magic): offsets are no longer monotone up to footer_offset.
  ASSERT_GT(bytes.size(), 16u);
  for (size_t i = bytes.size() - 16; i < bytes.size() - 8; ++i) {
    bytes[i] = 0;
  }
  const std::string bad = TempPath("factory_badfooter.bin");
  {
    std::ofstream os(bad, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_TRUE(IsBinarySetSystemFile(bad));
  std::string error;
  EXPECT_EQ(OpenDiskSetSource(bad, &error), nullptr);
  EXPECT_NE(error.find("corrupt footer"), std::string::npos) << error;
  EXPECT_NE(error.find(bad), std::string::npos)
      << "diagnostic should name the file: " << error;
  EXPECT_EQ(error.find("bad magic"), std::string::npos) << error;
}

}  // namespace
}  // namespace streamcover
