// Round-trip and malformed-input tests for the text format: its one
// writer (TextSetWriter, behind SaveSetSystemToFile) and its one parser
// (FileSetSource's scan, behind LoadAnySetSystemFromFile). Each test
// writes its own temp file, named after the test: ctest runs the cases
// in parallel.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "stream/mmap_set_source.h"

namespace streamcover {
namespace {

/// A temp path unique to the running test.
std::string TestPath() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/io_test_" + info->name() + ".txt";
}

/// Writes `text` to the test's temp file and returns its path.
std::string WriteText(const std::string& text) {
  const std::string path = TestPath();
  std::ofstream(path) << text;
  return path;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(IoTest, RoundTripPreservesInstance) {
  Rng rng(11);
  PlantedOptions options;
  options.num_elements = 80;
  options.num_sets = 150;
  options.cover_size = 6;
  PlantedInstance inst = GeneratePlanted(options, rng);

  const std::string path = TestPath();
  ASSERT_TRUE(SaveSetSystemToFile(inst.system, path));
  std::string error;
  auto loaded = LoadAnySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->num_elements(), inst.system.num_elements());
  ASSERT_EQ(loaded->num_sets(), inst.system.num_sets());
  for (uint32_t s = 0; s < inst.system.num_sets(); ++s) {
    auto a = inst.system.GetSet(s);
    auto b = loaded->GetSet(s);
    EXPECT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
              std::vector<uint32_t>(b.begin(), b.end()));
  }
}

TEST(IoTest, EmptySystemRoundTrips) {
  SetSystem::Builder b(0);
  SetSystem s = std::move(b).Build();
  const std::string path = TestPath();
  ASSERT_TRUE(SaveSetSystemToFile(s, path));
  std::string error;
  auto loaded = LoadAnySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_sets(), 0u);
}

TEST(IoTest, RejectsBadMagic) {
  const std::string path = WriteText("wrong 3 1\n1 0\n");
  std::string error;
  EXPECT_FALSE(LoadAnySetSystemFromFile(path, &error).has_value());
  EXPECT_NE(error.find("bad magic"), std::string::npos);
}

TEST(IoTest, RejectsOutOfRangeElement) {
  const std::string path = WriteText("setcover 3 1\n1 7\n");
  std::string error;
  EXPECT_FALSE(LoadAnySetSystemFromFile(path, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(IoTest, RejectsTruncatedBody) {
  const std::string path = WriteText("setcover 3 2\n2 0 1\n3 0");
  std::string error;
  EXPECT_FALSE(LoadAnySetSystemFromFile(path, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(IoTest, RejectsEmptyInput) {
  const std::string path = WriteText("");
  std::string error;
  EXPECT_FALSE(LoadAnySetSystemFromFile(path, &error).has_value());
}

TEST(IoTest, FileHelpersRoundTrip) {
  SetSystem::Builder b(4);
  b.AddSet({0, 3});
  b.AddSet({1, 2});
  SetSystem s = std::move(b).Build();
  const std::string path = TestPath();
  ASSERT_TRUE(SaveSetSystemToFile(s, path));
  std::string error;
  auto loaded = LoadAnySetSystemFromFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_sets(), 2u);
}

TEST(IoTest, SaveWritesTheTextFormatExactly) {
  SetSystem::Builder b(4);
  b.AddSet({0, 3});
  b.AddSet({1, 2});
  b.AddSet({});
  const std::string path = TestPath();
  ASSERT_TRUE(SaveSetSystemToFile(std::move(b).Build(), path));
  EXPECT_EQ(ReadText(path), "setcover 4 3\n2 0 3\n2 1 2\n0\n");
}

TEST(IoTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(
      LoadAnySetSystemFromFile("/nonexistent/really/not.txt", &error)
          .has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace streamcover
