// Unit tests for SetSystem and Cover utilities.

#include <gtest/gtest.h>

#include "setsystem/cover.h"
#include "setsystem/set_system.h"

namespace streamcover {
namespace {

SetSystem MakeSmall() {
  // U = {0..5}; sets: {0,1,2}, {2,3}, {3,4,5}, {5}, {}.
  SetSystem::Builder b(6);
  b.AddSet({0, 1, 2});
  b.AddSet({2, 3});
  b.AddSet({3, 4, 5});
  b.AddSet({5});
  b.AddSet({});
  return std::move(b).Build();
}

TEST(SetSystemTest, BasicAccessors) {
  SetSystem s = MakeSmall();
  EXPECT_EQ(s.num_elements(), 6u);
  EXPECT_EQ(s.num_sets(), 5u);
  EXPECT_EQ(s.total_size(), 9u);
  EXPECT_EQ(s.SetSize(0), 3u);
  EXPECT_EQ(s.SetSize(4), 0u);
  auto set1 = s.GetSet(1);
  EXPECT_EQ(std::vector<uint32_t>(set1.begin(), set1.end()),
            (std::vector<uint32_t>{2, 3}));
}

TEST(SetSystemTest, BuilderSortsAndDeduplicates) {
  SetSystem::Builder b(10);
  b.AddSet({5, 1, 5, 3, 1});
  SetSystem s = std::move(b).Build();
  auto set = s.GetSet(0);
  EXPECT_EQ(std::vector<uint32_t>(set.begin(), set.end()),
            (std::vector<uint32_t>{1, 3, 5}));
}

TEST(SetSystemTest, BuilderReturnsSequentialIds) {
  SetSystem::Builder b(4);
  EXPECT_EQ(b.AddSet({0}), 0u);
  EXPECT_EQ(b.AddSet({1}), 1u);
  EXPECT_EQ(b.num_sets(), 2u);
}

TEST(SetSystemTest, Contains) {
  SetSystem s = MakeSmall();
  EXPECT_TRUE(s.Contains(0, 1));
  EXPECT_FALSE(s.Contains(0, 3));
  EXPECT_FALSE(s.Contains(4, 0));
}

TEST(CoverTest, CoverageMaskAndCount) {
  SetSystem s = MakeSmall();
  Cover c{{0, 2}};
  EXPECT_EQ(CoveredCount(s, c), 6u);
  EXPECT_TRUE(IsFullCover(s, c));
  Cover partial{{1}};
  EXPECT_EQ(CoveredCount(s, partial), 2u);
  EXPECT_FALSE(IsFullCover(s, partial));
}

TEST(CoverTest, IsCoverable) {
  EXPECT_TRUE(IsCoverable(MakeSmall()));
  SetSystem::Builder b(3);
  b.AddSet({0, 1});  // element 2 uncovered by any set
  EXPECT_FALSE(IsCoverable(std::move(b).Build()));
}

TEST(CoverTest, DeduplicateRemovesRepeats) {
  Cover c{{3, 1, 3, 2, 1}};
  c.Deduplicate();
  EXPECT_EQ(c.set_ids, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(SetSystemTest, EmptySystem) {
  SetSystem::Builder b(0);
  SetSystem s = std::move(b).Build();
  EXPECT_EQ(s.num_elements(), 0u);
  EXPECT_EQ(s.num_sets(), 0u);
  EXPECT_TRUE(IsCoverable(s));
  EXPECT_TRUE(IsFullCover(s, Cover{}));
}

}  // namespace
}  // namespace streamcover
