// Tests for the binary on-disk CSR format: varint codec fuzzing at the
// LEB128 word boundaries, writer/loader round-trips against the text
// format, and clean rejection of truncated, resized, and corrupted
// files (structure at Open, checksum and body at load).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "util/rng.h"

namespace streamcover {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  // Every LEB128 length boundary: 7k bits exactly, one less, one more.
  std::vector<uint64_t> values = {0, 1, 2};
  for (int bits = 7; bits < 64; bits += 7) {
    const uint64_t edge = uint64_t{1} << bits;
    values.push_back(edge - 1);
    values.push_back(edge);
    values.push_back(edge + 1);
  }
  values.push_back(UINT64_MAX - 1);
  values.push_back(UINT64_MAX);

  for (uint64_t v : values) {
    std::string buf;
    binfmt::AppendVarint(v, buf);
    ASSERT_LE(buf.size(), 10u) << v;
    const uint8_t* cursor = reinterpret_cast<const uint8_t*>(buf.data());
    const uint8_t* end = cursor + buf.size();
    std::optional<uint64_t> decoded = binfmt::DecodeVarint(&cursor, end);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(cursor, end) << v;
  }
}

TEST(VarintTest, RoundTripsRandomValuesConcatenated) {
  // Fuzz: random widths, all concatenated into one buffer, decoded back
  // in sequence — exactly how set bodies are laid out.
  Rng rng(7);
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 5000; ++i) {
    const int bits = static_cast<int>(rng.UniformInt(0, 63));
    const uint64_t v = rng.Next() >> (63 - bits);
    values.push_back(v);
    binfmt::AppendVarint(v, buf);
  }
  const uint8_t* cursor = reinterpret_cast<const uint8_t*>(buf.data());
  const uint8_t* end = cursor + buf.size();
  for (uint64_t expect : values) {
    std::optional<uint64_t> decoded = binfmt::DecodeVarint(&cursor, end);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, expect);
  }
  EXPECT_EQ(cursor, end);
}

TEST(VarintTest, RejectsTruncationAndOverlongEncodings) {
  std::string buf;
  binfmt::AppendVarint(UINT64_MAX, buf);
  ASSERT_EQ(buf.size(), 10u);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const uint8_t* cursor = reinterpret_cast<const uint8_t*>(buf.data());
    EXPECT_FALSE(binfmt::DecodeVarint(&cursor, cursor + cut).has_value())
        << "prefix of " << cut << " bytes decoded";
  }
  // 11 continuation bytes: longer than any uint64 needs.
  std::string overlong(11, static_cast<char>(0x80));
  const uint8_t* cursor =
      reinterpret_cast<const uint8_t*>(overlong.data());
  EXPECT_FALSE(
      binfmt::DecodeVarint(&cursor, cursor + overlong.size()).has_value());
}

TEST(BinaryIoTest, WriteLoadRoundTripMatchesTextFormat) {
  Rng rng(11);
  PlantedOptions options;
  options.num_elements = 200;
  options.num_sets = 400;
  options.cover_size = 7;
  PlantedInstance inst = GeneratePlanted(options, rng);

  const std::string bin = TempPath("roundtrip.bin");
  const std::string txt = TempPath("roundtrip.txt");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(inst.system, bin, &error)) << error;
  ASSERT_TRUE(SaveSetSystemToFile(inst.system, txt));

  EXPECT_TRUE(IsBinarySetSystemFile(bin));
  EXPECT_FALSE(IsBinarySetSystemFile(txt));
  EXPECT_FALSE(IsBinarySetSystemFile(TempPath("missing.bin")));

  auto from_bin = LoadBinarySetSystemFromFile(bin, &error);
  ASSERT_TRUE(from_bin.has_value()) << error;
  ASSERT_EQ(from_bin->num_elements(), inst.system.num_elements());
  ASSERT_EQ(from_bin->num_sets(), inst.system.num_sets());
  ASSERT_EQ(from_bin->total_size(), inst.system.total_size());
  for (uint32_t s = 0; s < inst.system.num_sets(); ++s) {
    auto expect = inst.system.GetSet(s);
    auto got = from_bin->GetSet(s);
    ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
              std::vector<uint32_t>(expect.begin(), expect.end()))
        << "set " << s;
  }

  // LoadAny sniffs the magic and accepts both spellings.
  auto any_bin = LoadAnySetSystemFromFile(bin, &error);
  ASSERT_TRUE(any_bin.has_value()) << error;
  EXPECT_EQ(any_bin->total_size(), inst.system.total_size());
  auto any_txt = LoadAnySetSystemFromFile(txt, &error);
  ASSERT_TRUE(any_txt.has_value()) << error;
  EXPECT_EQ(any_txt->total_size(), inst.system.total_size());
}

TEST(BinaryIoTest, WriterNormalizesUnsortedDuplicatedSets) {
  const std::string path = TempPath("normalize.bin");
  std::string error;
  auto writer = BinarySetWriter::Create(path, /*num_elements=*/70, &error);
  ASSERT_TRUE(writer.has_value()) << error;
  const std::vector<uint32_t> messy = {65, 3, 65, 0, 3};
  ASSERT_TRUE(writer->AddSet(messy));
  ASSERT_TRUE(writer->AddSet({}));  // empty sets are legal
  ASSERT_TRUE(writer->Finish(&error)) << error;
  EXPECT_EQ(writer->num_sets(), 2u);
  EXPECT_EQ(writer->nnz(), 3u);

  auto loaded = LoadBinarySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  auto got = loaded->GetSet(0);
  EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
            (std::vector<uint32_t>{0, 3, 65}));
  EXPECT_EQ(loaded->SetSize(1), 0u);
}

TEST(BinaryIoTest, WriterBuffersSetsLargerThanItsBufferAcrossFlushes) {
  // Sets whose worst-case encoding exceeds the 1 MiB encode buffer, and
  // a body several buffers long, interleaved with small sorted and
  // unsorted sets: every set, nnz and the body checksum must survive
  // the buffer's growth and its flushes.
  Rng rng(29);
  const uint32_t n = uint32_t{1} << 30;
  std::vector<std::vector<uint32_t>> sets;
  for (int i = 0; i < 3; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(n, 300000));
    sets.push_back({7, 3, 7});
    sets.push_back({});
    sets.push_back({1, 2, n - 1});
  }
  const std::string path = TempPath("large_sets.bin");
  std::string error;
  auto writer = BinarySetWriter::Create(path, n, &error);
  ASSERT_TRUE(writer.has_value()) << error;
  uint64_t nnz = 0;
  for (std::vector<uint32_t>& set : sets) {
    ASSERT_TRUE(writer->AddSet(set)) << writer->error();
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    nnz += set.size();
  }
  ASSERT_TRUE(writer->Finish(&error)) << error;
  EXPECT_EQ(writer->nnz(), nnz);
  EXPECT_GT(ReadFileBytes(path).size(), size_t{1} << 20);

  auto loaded = LoadBinarySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->num_sets(), sets.size());
  for (uint32_t s = 0; s < loaded->num_sets(); ++s) {
    auto got = loaded->GetSet(s);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), sets[s]) << s;
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, WriterRejectsOutOfRangeElements) {
  const std::string path = TempPath("out_of_range.bin");
  std::string error;
  auto writer = BinarySetWriter::Create(path, /*num_elements=*/10, &error);
  ASSERT_TRUE(writer.has_value()) << error;
  const std::vector<uint32_t> bad = {3, 10};  // 10 == n is out of range
  EXPECT_FALSE(writer->AddSet(bad));
  EXPECT_NE(writer->error().find("out of range"), std::string::npos)
      << writer->error();
  // A failed AddSet poisons Finish too.
  EXPECT_FALSE(writer->Finish(&error));
}

TEST(BinaryIoTest, RejectsTruncatedFilesAtEveryPrefixLength) {
  Rng rng(13);
  PlantedInstance inst = GeneratePlanted(
      {.num_elements = 40, .num_sets = 30, .cover_size = 3}, rng);
  const std::string path = TempPath("truncate.bin");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(inst.system, path, &error)) << error;
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 80u);

  const std::string cut_path = TempPath("truncate_cut.bin");
  // Every strict prefix must be rejected: header cuts, body cuts,
  // footer cuts, and a missing end magic all trip different checks.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    WriteFileBytes(cut_path, bytes.substr(0, len));
    error.clear();
    EXPECT_FALSE(LoadBinarySetSystemFromFile(cut_path, &error).has_value())
        << "prefix " << len << " of " << bytes.size() << " accepted";
    EXPECT_FALSE(error.empty());
  }
  WriteFileBytes(cut_path, bytes.substr(0, bytes.size() - 1));
  EXPECT_FALSE(LoadBinarySetSystemFromFile(cut_path, &error).has_value());
}

TEST(BinaryIoTest, RejectsCorruptedBodyViaChecksum) {
  Rng rng(17);
  PlantedInstance inst = GeneratePlanted(
      {.num_elements = 60, .num_sets = 50, .cover_size = 4}, rng);
  const std::string path = TempPath("corrupt.bin");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(inst.system, path, &error)) << error;
  std::string bytes = ReadFileBytes(path);

  // Flip one bit in the middle of the body.
  const size_t victim = binfmt::kHeaderBytes + bytes.size() / 4;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  const std::string bad = TempPath("corrupt_flipped.bin");
  WriteFileBytes(bad, bytes);
  error.clear();
  EXPECT_FALSE(LoadBinarySetSystemFromFile(bad, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(BinaryIoTest, RejectsBadMagicVersionAndDimensions) {
  Rng rng(19);
  PlantedInstance inst = GeneratePlanted(
      {.num_elements = 30, .num_sets = 20, .cover_size = 3}, rng);
  const std::string path = TempPath("headers.bin");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(inst.system, path, &error)) << error;
  const std::string good = ReadFileBytes(path);
  const std::string bad = TempPath("headers_bad.bin");

  {
    std::string b = good;
    b[0] = 'X';  // magic
    WriteFileBytes(bad, b);
    EXPECT_FALSE(LoadBinarySetSystemFromFile(bad, &error).has_value());
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }
  {
    std::string b = good;
    b[8] = 2;  // version
    WriteFileBytes(bad, b);
    error.clear();
    EXPECT_FALSE(LoadBinarySetSystemFromFile(bad, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
  {
    std::string b = good;
    b[23] = 1;  // n high byte -> beyond kMaxDimension
    WriteFileBytes(bad, b);
    error.clear();
    EXPECT_FALSE(LoadBinarySetSystemFromFile(bad, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(BinaryIoTest, EmptyAndSingletonSystemsRoundTrip) {
  SetSystem::Builder builder(5);
  SetSystem empty = std::move(builder).Build();
  const std::string path = TempPath("empty.bin");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(empty, path, &error)) << error;
  auto loaded = LoadBinarySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_elements(), 5u);
  EXPECT_EQ(loaded->num_sets(), 0u);

  SetSystem::Builder one(1);
  const std::vector<uint32_t> just_zero = {0};
  one.AddSet(just_zero);
  SetSystem single = std::move(one).Build();
  const std::string spath = TempPath("single.bin");
  ASSERT_TRUE(WriteBinarySetSystem(single, spath, &error)) << error;
  auto sloaded = LoadBinarySetSystemFromFile(spath, &error);
  ASSERT_TRUE(sloaded.has_value()) << error;
  EXPECT_EQ(sloaded->num_sets(), 1u);
  EXPECT_EQ(sloaded->SetSize(0), 1u);
}

TEST(ChunkPlanTest, CoversEverySetContiguouslyAndRespectsTarget) {
  Rng rng(21);
  PlantedOptions options;
  options.num_elements = 200;
  options.num_sets = 400;
  options.cover_size = 7;
  PlantedInstance inst = GeneratePlanted(options, rng);
  const std::string path = TempPath("chunkplan.bin");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(inst.system, path, &error)) << error;
  const std::string bytes = ReadFileBytes(path);
  binfmt::BinaryLayout layout;
  ASSERT_TRUE(binfmt::ValidateBinaryLayout(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(),
      &layout, &error))
      << error;

  for (uint64_t target : {64u, 512u, 1u << 20}) {
    const std::vector<binfmt::ScanChunk> chunks =
        binfmt::BuildChunkPlan(layout, target);
    ASSERT_FALSE(chunks.empty());
    // Contiguous cover of [0, m) in both sets and bytes.
    EXPECT_EQ(chunks.front().first_set, 0u);
    EXPECT_EQ(chunks.front().byte_begin, layout.SetOffset(0));
    uint64_t sets = 0;
    for (size_t c = 0; c < chunks.size(); ++c) {
      ASSERT_GE(chunks[c].set_count, 1u) << "empty chunk " << c;
      EXPECT_EQ(chunks[c].byte_begin,
                layout.SetOffset(chunks[c].first_set));
      EXPECT_EQ(chunks[c].byte_end,
                layout.SetOffset(chunks[c].first_set +
                                 chunks[c].set_count));
      if (c > 0) {
        EXPECT_EQ(chunks[c].first_set,
                  chunks[c - 1].first_set + chunks[c - 1].set_count);
        EXPECT_EQ(chunks[c].byte_begin, chunks[c - 1].byte_end);
        // Every chunk but the last carries at least the target (a
        // chunk closes only once it crossed it) unless it holds a
        // single oversized set.
        EXPECT_TRUE(chunks[c - 1].byte_end - chunks[c - 1].byte_begin >=
                        target ||
                    chunks[c - 1].set_count == 1u)
            << "undersized interior chunk " << c - 1;
      }
      sets += chunks[c].set_count;
    }
    EXPECT_EQ(sets, layout.m);
    EXPECT_EQ(chunks.back().byte_end, layout.SetOffset(layout.m));
  }

  // target 0: one chunk spanning the whole body.
  const std::vector<binfmt::ScanChunk> whole =
      binfmt::BuildChunkPlan(layout, 0);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].first_set, 0u);
  EXPECT_EQ(whole[0].set_count, layout.m);
}

TEST(ChunkPlanTest, EmptySystemYieldsEmptyPlan) {
  SetSystem::Builder builder(5);
  SetSystem empty = std::move(builder).Build();
  const std::string path = TempPath("chunkplan_empty.bin");
  std::string error;
  ASSERT_TRUE(WriteBinarySetSystem(empty, path, &error)) << error;
  const std::string bytes = ReadFileBytes(path);
  binfmt::BinaryLayout layout;
  ASSERT_TRUE(binfmt::ValidateBinaryLayout(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(),
      &layout, &error))
      << error;
  EXPECT_TRUE(binfmt::BuildChunkPlan(layout, 256 * 1024).empty());
}

}  // namespace
}  // namespace streamcover
