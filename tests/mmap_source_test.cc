// Tests for MmapSetSource: Open-time structural validation through the
// offsets footer, scan parity with the in-memory and text sources,
// graceful sticky errors on corrupt bodies, move semantics, the
// OpenDiskSetSource magic-sniffing factory, and the chunk decoder's
// short-varint fast path against a DecodeVarint-only reference: every
// varint length, hand-corrupted slots, and seeded byte mutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
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

// --- The decode loop's short-varint fast path ---------------------------

/// What a scan of a SCOVRB01 image yields: the sets delivered, in order,
/// and the diagnostic that stopped it ("" after a full scan), without the
/// path prefix.
struct Decoded {
  std::vector<std::vector<uint32_t>> sets;
  std::string error;
};

binfmt::BinaryLayout ImageLayout(const std::string& image) {
  binfmt::BinaryLayout layout;
  std::string error;
  EXPECT_TRUE(binfmt::ValidateBinaryLayout(
      reinterpret_cast<const uint8_t*>(image.data()), image.size(), &layout,
      &error))
      << error;
  return layout;
}

/// The reference the scan decoder must agree with: the serial loop that
/// reads every varint through DecodeVarint. It keeps every set before
/// the first corrupt one.
Decoded ReferenceDecode(const std::string& image) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(image.data());
  const binfmt::BinaryLayout layout = ImageLayout(image);
  Decoded out;
  for (uint64_t s = 0; s < layout.m; ++s) {
    const uint8_t* cursor = data + layout.SetOffset(s);
    const uint8_t* end = data + layout.SetOffset(s + 1);
    const std::string where = "corrupt set " + std::to_string(s) + ": ";
    auto size = binfmt::DecodeVarint(&cursor, end);
    if (!size.has_value() || *size > layout.max_set_size) {
      out.error = where + "bad size varint";
      return out;
    }
    std::vector<uint32_t> set;
    uint64_t prev = 0;
    for (uint64_t j = 0; j < *size; ++j) {
      auto delta = binfmt::DecodeVarint(&cursor, end);
      if (!delta.has_value()) {
        out.error = where + "truncated body";
        return out;
      }
      const uint64_t e = (j == 0) ? *delta : prev + *delta + 1;
      if (*delta >= layout.n || e >= layout.n) {
        out.error = where + "element id out of range";
        return out;
      }
      set.push_back(static_cast<uint32_t>(e));
      prev = e;
    }
    if (cursor != end) {
      out.error = where + "trailing bytes";
      return out;
    }
    out.sets.push_back(std::move(set));
  }
  return out;
}

/// Scans `image` with the chunk decoder at `threads` decode threads over
/// a `chunk_bytes` chunk plan. The buffer holds exactly the file's bytes,
/// so an 8-byte load past its end would be an ASan finding.
Decoded ScanImage(const std::string& image, uint32_t threads,
                  uint64_t chunk_bytes,
                  std::vector<binfmt::ScanChunk>* chunks_out = nullptr) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(image.data());
  const binfmt::BinaryLayout layout = ImageLayout(image);
  const std::vector<binfmt::ScanChunk> chunks =
      binfmt::BuildChunkPlan(layout, chunk_bytes);
  if (chunks_out != nullptr) *chunks_out = chunks;
  PipelinedScanner scanner(data, layout.n, layout,
                           std::span<const binfmt::ScanChunk>(chunks), threads);
  Decoded out;
  const std::string path = "image";
  std::string error;
  if (!scanner.Run(
          path,
          [&](std::span<const SetView> views) {
            for (const SetView& set : views) {
              out.sets.emplace_back(set.begin(), set.end());
            }
          },
          /*cancel=*/nullptr, &error)) {
    out.error = error.substr(path.size() + 2);
  }
  return out;
}

void AppendU64(uint64_t value, std::string& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(value >> (8 * i)));
  }
}

/// A SCOVRB01 image over raw set slots (size varint, then element
/// varints), so a test can place any byte pattern in a slot; only the
/// header, footer and trailer are made for it.
std::string RawImage(uint64_t n, const std::vector<std::string>& slots) {
  std::string body;
  std::vector<uint64_t> offsets{binfmt::kHeaderBytes};
  for (const std::string& slot : slots) {
    body += slot;
    offsets.push_back(binfmt::kHeaderBytes + body.size());
  }
  std::string image(binfmt::kMagic, 8);
  image += std::string("\x01\0\0\0", 4);  // version 1
  image += std::string("\x40\0\0\0", 4);  // header bytes 64
  AppendU64(n, image);
  AppendU64(slots.size(), image);
  AppendU64(0, image);  // nnz: the scan never reads it
  AppendU64(offsets.back(), image);
  AppendU64(0, image);  // checksum: likewise
  AppendU64(0, image);
  image += body;
  for (uint64_t offset : offsets) AppendU64(offset, image);
  image += std::string(binfmt::kEndMagic, 8);
  return image;
}

/// One slot: the size varint, then each value as a varint.
std::string Slot(uint64_t size, const std::vector<uint64_t>& varints) {
  std::string slot;
  binfmt::AppendVarint(size, slot);
  for (uint64_t v : varints) binfmt::AppendVarint(v, slot);
  return slot;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>{});
}

TEST(ChunkDecoderTest, VarintsOfOneToFiveBytesDecodeAtEveryLength) {
  // n near 2^31, so ids and deltas reach 5-byte varints (>= 2^28). Each
  // length sits at both of its edges (127/128, 2^14 - 1/2^14, 2^21 -
  // 1/2^21, 2^28 - 1/2^28). The last set ends right at the footer, once
  // on a 1-byte and once on a 3-byte varint.
  constexpr uint32_t kN = (uint32_t{1} << 31) - 1;
  std::vector<uint32_t> edges{0};
  for (const uint64_t delta :
       {uint64_t{1}, uint64_t{127}, uint64_t{128}, (uint64_t{1} << 14) - 1,
        uint64_t{1} << 14, (uint64_t{1} << 21) - 1, uint64_t{1} << 21,
        (uint64_t{1} << 28) - 1, uint64_t{1} << 28, uint64_t{5}}) {
    edges.push_back(static_cast<uint32_t>(edges.back() + delta + 1));
  }
  for (const uint32_t tail_delta : {3u, 20000u}) {
    SCOPED_TRACE("tail delta " + std::to_string(tail_delta));
    const std::vector<std::vector<uint32_t>> sets = {
        {0},
        edges,
        {},
        {uint32_t{1} << 28, (uint32_t{1} << 28) + (uint32_t{1} << 28) + 6,
         kN - 1},
        {kN - tail_delta - 2, kN - 1},
    };
    const std::string path = TempPath("varint_lengths.bin");
    std::string error;
    {
      std::optional<BinarySetWriter> writer =
          BinarySetWriter::Create(path, kN, &error);
      ASSERT_TRUE(writer.has_value()) << error;
      for (const std::vector<uint32_t>& set : sets) {
        ASSERT_TRUE(writer->AddSet(set)) << writer->error();
      }
      ASSERT_TRUE(writer->Finish(&error)) << error;
    }
    const std::string image = ReadFile(path);
    const Decoded reference = ReferenceDecode(image);
    ASSERT_EQ(reference.error, "");
    ASSERT_EQ(reference.sets, sets);
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("scan_threads=" + std::to_string(threads));
      auto source = MmapSetSource::Open(path, &error);
      ASSERT_TRUE(source.has_value()) << error;
      source->set_scan_threads(threads);
      std::vector<std::vector<uint32_t>> got;
      ASSERT_TRUE(source->Scan([&](const SetView& set) {
        got.emplace_back(set.begin(), set.end());
      })) << source->error();
      EXPECT_EQ(got, sets);
      const Decoded chunked = ScanImage(image, threads, /*chunk_bytes=*/8);
      EXPECT_EQ(chunked.error, "");
      EXPECT_EQ(chunked.sets, sets);
    }
  }
}

TEST(ChunkDecoderTest, HandCorruptedSlotsGiveTheReferenceDiagnostic) {
  struct Corruption {
    std::string name;
    std::string image;
    std::string expect;
  };
  std::string runs_on = Slot(2, {5});
  runs_on.push_back(static_cast<char>(0x81));  // continues into set 1
  std::string runs_into_footer = Slot(2, {5});
  runs_into_footer.push_back(static_cast<char>(0xFF));
  const std::vector<Corruption> cases = {
      {"continuation into the next slot",
       RawImage(1000, {runs_on, Slot(1, {3})}),
       "corrupt set 0: truncated body"},
      {"continuation into the footer",
       RawImage(1000, {Slot(1, {3}), runs_into_footer}),
       "corrupt set 1: truncated body"},
      // An element equal to n, as a first id and as a delta, in 1, 2 and
      // 3 bytes.
      {"1-byte first id n", RawImage(100, {Slot(1, {7}), Slot(1, {100})}),
       "corrupt set 1: element id out of range"},
      {"2-byte first id n", RawImage(200, {Slot(1, {200})}),
       "corrupt set 0: element id out of range"},
      {"3-byte first id n", RawImage(20000, {Slot(1, {20000})}),
       "corrupt set 0: element id out of range"},
      {"1-byte delta to n", RawImage(100, {Slot(2, {10, 89})}),
       "corrupt set 0: element id out of range"},
      {"2-byte delta to n", RawImage(300, {Slot(2, {10, 289})}),
       "corrupt set 0: element id out of range"},
      {"3-byte delta to n", RawImage(20000, {Slot(2, {10, 19989})}),
       "corrupt set 0: element id out of range"},
      {"size one short", RawImage(1000, {Slot(1, {4}), Slot(2, {1, 2, 3})}),
       "corrupt set 1: trailing bytes"},
  };
  for (const Corruption& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(ReferenceDecode(c.image).error, c.expect);
    for (const uint32_t threads : {1u, 4u}) {
      const Decoded got = ScanImage(c.image, threads, /*chunk_bytes=*/0);
      EXPECT_EQ(got.error, c.expect) << "scan_threads=" << threads;
      EXPECT_TRUE(got.sets.empty()) << "a set of the failing chunk escaped";
    }
  }
}

TEST(ChunkDecoderTest, SeededByteMutationsMatchTheReference) {
  // ~2,000 single-byte mutations of a small file's body; the footer
  // stays valid, so every image opens. Ids reach 2^22, so deltas take
  // 1- to 4-byte varints and mutations hit the fast path, its length
  // and slot checks, and the DecodeVarint fallback. Each scan, on a
  // plan of ~64-byte chunks, must deliver the reference's sets, or fail
  // with the reference's diagnostic after delivering exactly the chunks
  // before the failing set's chunk.
  Rng rng(2026);
  constexpr uint32_t kN = uint32_t{1} << 22;
  SetSystem::Builder builder(kN);
  for (int s = 0; s < 48; ++s) {
    std::vector<uint32_t> set;
    const uint32_t size = static_cast<uint32_t>(rng.Uniform(12));
    const uint64_t spread = uint64_t{1} << rng.UniformInt(7, 22);
    for (uint32_t i = 0; i < size; ++i) {
      set.push_back(static_cast<uint32_t>(rng.Uniform(spread)));
    }
    builder.AddSet(set);
  }
  const SetSystem system = std::move(builder).Build();
  const std::string path = TempPath("mutation_src.bin");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(system, path, &error)) << error;
  const std::string clean = ReadFile(path);
  const binfmt::BinaryLayout layout = ImageLayout(clean);
  const uint64_t body_bytes = layout.footer_offset - binfmt::kHeaderBytes;

  std::set<std::string> outcomes;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string image = clean;
    const size_t at = binfmt::kHeaderBytes + rng.Uniform(body_bytes);
    image[at] = static_cast<char>(static_cast<uint8_t>(image[at]) ^
                                  (1 + rng.Uniform(255)));
    const Decoded reference = ReferenceDecode(image);
    const std::string kind =
        reference.error.empty()
            ? "clean"
            : reference.error.substr(reference.error.find(": ") + 2);
    outcomes.insert(kind);
    for (const uint32_t threads : {1u, 4u}) {
      std::vector<binfmt::ScanChunk> chunks;
      const Decoded got =
          ScanImage(image, threads, /*chunk_bytes=*/64, &chunks);
      ASSERT_EQ(got.error, reference.error)
          << "trial " << trial << " byte " << at << " scan_threads=" << threads;
      size_t expect_sets = reference.sets.size();
      if (!reference.error.empty()) {
        // The failing set is the one after the last clean set; only the
        // chunks before its chunk may be delivered.
        const uint32_t failing = static_cast<uint32_t>(reference.sets.size());
        for (const binfmt::ScanChunk& chunk : chunks) {
          if (failing < chunk.first_set + chunk.set_count) {
            expect_sets = chunk.first_set;
            break;
          }
        }
      }
      ASSERT_EQ(got.sets.size(), expect_sets)
          << "trial " << trial << " scan_threads=" << threads;
      ASSERT_TRUE(std::equal(got.sets.begin(), got.sets.end(),
                             reference.sets.begin()))
          << "trial " << trial << " scan_threads=" << threads;
    }
  }
  // The mutations reach every outcome the decoder can report.
  for (const char* kind : {"clean", "bad size varint", "truncated body",
                           "element id out of range", "trailing bytes"}) {
    EXPECT_EQ(outcomes.count(kind), 1u) << "no mutation gave: " << kind;
  }
}

TEST(ChunkDecoderTest, WrappingDeltaIsOutOfRangeOnEveryDecoder) {
  // Size 2, first id 5, then the 10-byte delta 2^64 - 6: 5 + delta + 1
  // wraps to id 0. Unchecked, the scan delivered the unsorted set
  // {5, 0} while the loader's builder normalised it to {0, 5}. The body
  // checksum is valid, so the loader reaches the set too.
  std::string image =
      RawImage(100, {Slot(2, {5, ~uint64_t{0} - 5}), Slot(1, {7})});
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(image.data());
  const binfmt::BinaryLayout layout = ImageLayout(image);
  const uint64_t checksum =
      binfmt::Fnv1a(bytes + binfmt::kHeaderBytes,
                    layout.footer_offset - binfmt::kHeaderBytes,
                    binfmt::kFnvOffset);
  for (int i = 0; i < 8; ++i) {  // the header's checksum, bytes 48-55
    image[48 + i] = static_cast<char>(checksum >> (8 * i));
  }
  const std::string path = TempPath("wrapping_delta.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << image;
  }
  const std::string expect = "corrupt set 0: element id out of range";
  EXPECT_EQ(ReferenceDecode(image).error, expect);
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("scan_threads=" + std::to_string(threads));
    const Decoded chunked = ScanImage(image, threads, /*chunk_bytes=*/0);
    EXPECT_EQ(chunked.error, expect);
    EXPECT_TRUE(chunked.sets.empty());
    std::string error;
    auto source = MmapSetSource::Open(path, &error);
    ASSERT_TRUE(source.has_value()) << error;
    source->set_scan_threads(threads);
    EXPECT_FALSE(source->Scan([](const SetView&) {}));
    EXPECT_EQ(source->error(), path + ": " + expect);
  }
  std::string error;
  EXPECT_FALSE(LoadBinarySetSystemFromFile(path, &error).has_value());
  EXPECT_NE(error.find(expect), std::string::npos) << error;
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
