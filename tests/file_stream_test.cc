// Tests for the pluggable stream backends: FileSetSource must behave
// identically to the in-memory source — same scans, same pass counts,
// same algorithm results — while actually re-reading the file per pass.

#include <gtest/gtest.h>

#include <fstream>

#include "core/iter_set_cover.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "stream/mmap_set_source.h"
#include "stream/set_source.h"
#include "stream/set_stream.h"

namespace streamcover {
namespace {

std::string WriteTempInstance(const SetSystem& system,
                              const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveSetSystemToFile(system, path));
  return path;
}

TEST(FileSetSourceTest, OpenValidatesHeader) {
  std::string error;
  EXPECT_FALSE(FileSetSource::Open("/no/such/file.txt", &error).has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  std::string bad = ::testing::TempDir() + "/bad_magic.txt";
  {
    std::ofstream out(bad);
    out << "wrongmagic 3 1\n1 0\n";
  }
  EXPECT_FALSE(FileSetSource::Open(bad, &error).has_value());
  EXPECT_NE(error.find("bad magic"), std::string::npos);
}

TEST(FileSetSourceTest, ScanMatchesInMemorySource) {
  Rng rng(1);
  PlantedOptions options;
  options.num_elements = 120;
  options.num_sets = 250;
  options.cover_size = 6;
  PlantedInstance inst = GeneratePlanted(options, rng);
  std::string path = WriteTempInstance(inst.system, "scan_match.txt");

  std::string error;
  auto file_source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(file_source.has_value()) << error;
  EXPECT_EQ(file_source->num_elements(), inst.system.num_elements());
  EXPECT_EQ(file_source->num_sets(), inst.system.num_sets());

  std::vector<std::vector<uint32_t>> from_file;
  file_source->Scan([&](const SetView& set) {
    EXPECT_EQ(set.id, from_file.size());
    from_file.emplace_back(set.begin(), set.end());
  });
  ASSERT_EQ(from_file.size(), inst.system.num_sets());
  for (uint32_t s = 0; s < inst.system.num_sets(); ++s) {
    auto expect = inst.system.GetSet(s);
    EXPECT_EQ(from_file[s],
              std::vector<uint32_t>(expect.begin(), expect.end()));
  }
}

TEST(FileSetSourceTest, NormalizesUnsortedAndDuplicatedLines) {
  // Loading a file into memory sorts/dedups through Builder::AddSet;
  // streaming straight from disk must present the same sorted,
  // duplicate-free spans (the coverage kernels' stream invariant), so a
  // malformed line is normalized during the parse.
  std::string path = ::testing::TempDir() + "/unsorted_sets.txt";
  {
    std::ofstream out(path);
    out << "setcover 70 3\n"
        << "4 65 3 65 0\n"   // unsorted + duplicate
        << "3 10 20 30\n"    // already sorted: pass-through
        << "0\n";            // empty set
  }
  std::string error;
  auto source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(source.has_value()) << error;
  std::vector<std::vector<uint32_t>> sets;
  source->Scan([&](const SetView& set) {
    sets.emplace_back(set.begin(), set.end());
  });
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], (std::vector<uint32_t>{0, 3, 65}));
  EXPECT_EQ(sets[1], (std::vector<uint32_t>{10, 20, 30}));
  EXPECT_TRUE(sets[2].empty());

  // And the streamed view agrees with the in-memory load of the file.
  auto loaded = LoadAnySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  for (uint32_t s = 0; s < loaded->num_sets(); ++s) {
    const auto span = loaded->GetSet(s);
    EXPECT_EQ(sets[s], std::vector<uint32_t>(span.begin(), span.end()));
  }
}

TEST(FileSetSourceTest, RepeatedScansAreStable) {
  Rng rng(2);
  PlantedInstance inst = GeneratePlanted(
      {.num_elements = 50, .num_sets = 80, .cover_size = 4}, rng);
  std::string path = WriteTempInstance(inst.system, "rescan.txt");
  std::string error;
  auto source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(source.has_value()) << error;
  size_t first = 0, second = 0;
  source->Scan([&](const SetView& set) { first += set.size(); });
  source->Scan([&](const SetView& set) { second += set.size(); });
  EXPECT_EQ(first, inst.system.total_size());
  EXPECT_EQ(first, second);
}

TEST(FileSetSourceTest, TruncatedFileFailsScanGracefully) {
  // Open only validates the header, so a file truncated mid-body is
  // first noticed during Scan — which must return false with a
  // diagnostic, stick, and never abort.
  std::string path = ::testing::TempDir() + "/truncated_body.txt";
  {
    std::ofstream out(path);
    out << "setcover 50 3\n"
        << "2 1 2\n"
        << "4 10 11\n";  // claims 4 elements, delivers 2, set 2 missing
  }
  std::string error;
  auto source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(source.has_value()) << error;
  size_t visited = 0;
  EXPECT_FALSE(source->Scan([&](const SetView&) { ++visited; }));
  // The intact first set shares the failing batch, so it is dropped too.
  EXPECT_EQ(visited, 0u);
  EXPECT_FALSE(source->error().empty());
  EXPECT_NE(source->error().find("truncated"), std::string::npos)
      << source->error();
  // Sticky: later scans fail immediately without dispatching anything.
  visited = 0;
  EXPECT_FALSE(source->Scan([&](const SetView&) { ++visited; }));
  EXPECT_EQ(visited, 0u);
}

TEST(FileSetSourceTest, OutOfRangeElementFailsScanGracefully) {
  std::string path = ::testing::TempDir() + "/oob_element.txt";
  {
    std::ofstream out(path);
    out << "setcover 10 2\n"
        << "1 3\n"
        << "2 4 10\n";  // 10 == n is out of range
  }
  std::string error;
  auto source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(source.has_value()) << error;
  EXPECT_FALSE(source->Scan([](const SetView&) {}));
  EXPECT_NE(source->error().find("out of range"), std::string::npos)
      << source->error();
}

TEST(FileStreamTest, StreamErrorSurfacesThroughForEachSet) {
  std::string path = ::testing::TempDir() + "/stream_error.txt";
  {
    std::ofstream out(path);
    out << "setcover 20 2\n"
        << "1 5\n";  // second set missing entirely
  }
  std::string error;
  auto source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(source.has_value()) << error;
  SetStream stream(&*source);
  EXPECT_FALSE(stream.ForEachSet([](const SetView&) {}));
  EXPECT_FALSE(stream.error().empty());
}

TEST(FileStreamTest, PassCountingThroughSetStream) {
  Rng rng(3);
  PlantedInstance inst = GeneratePlanted(
      {.num_elements = 40, .num_sets = 60, .cover_size = 4}, rng);
  std::string path = WriteTempInstance(inst.system, "pass_count.txt");
  std::string error;
  auto source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(source.has_value()) << error;
  SetStream stream(&*source);
  EXPECT_EQ(stream.num_elements(), 40u);
  stream.ForEachSet([](const SetView&) {});
  stream.ForEachSet([](const SetView&) {});
  EXPECT_EQ(stream.passes(), 2u);
}

TEST(FileStreamTest, IterSetCoverIdenticalFromDiskAndMemory) {
  Rng rng(4);
  PlantedOptions options;
  options.num_elements = 300;
  options.num_sets = 700;
  options.cover_size = 9;
  PlantedInstance inst = GeneratePlanted(options, rng);
  std::string path = WriteTempInstance(inst.system, "solve_match.txt");

  IterSetCoverOptions algo;
  algo.delta = 0.5;
  algo.seed = 11;

  SetStream memory_stream(&inst.system);
  StreamingResult from_memory = IterSetCover(memory_stream, algo);

  std::string error;
  auto source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(source.has_value()) << error;
  SetStream disk_stream(&*source);
  StreamingResult from_disk = IterSetCover(disk_stream, algo);

  ASSERT_TRUE(from_memory.success);
  ASSERT_TRUE(from_disk.success);
  EXPECT_EQ(from_memory.cover.set_ids, from_disk.cover.set_ids);
  EXPECT_EQ(from_memory.passes, from_disk.passes);
  EXPECT_EQ(from_memory.space_words_parallel,
            from_disk.space_words_parallel);
}

}  // namespace
}  // namespace streamcover
