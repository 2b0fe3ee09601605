// Tests for the streaming substrate: pass counting and space accounting.

#include <gtest/gtest.h>

#include "setsystem/set_system.h"
#include "stream/set_stream.h"
#include "stream/space_tracker.h"

namespace streamcover {
namespace {

SetSystem MakeSystem() {
  SetSystem::Builder b(4);
  b.AddSet({0, 1});
  b.AddSet({2});
  b.AddSet({1, 2, 3});
  return std::move(b).Build();
}

TEST(SetStreamTest, CountsPasses) {
  SetSystem s = MakeSystem();
  SetStream stream(&s);
  EXPECT_EQ(stream.passes(), 0u);
  stream.ForEachSet([](const SetView&) {});
  EXPECT_EQ(stream.passes(), 1u);
  stream.ForEachSet([](const SetView&) {});
  stream.ForEachSet([](const SetView&) {});
  EXPECT_EQ(stream.passes(), 3u);
}

TEST(SetStreamTest, VisitsSetsInStreamOrder) {
  SetSystem s = MakeSystem();
  SetStream stream(&s);
  std::vector<uint32_t> ids;
  std::vector<size_t> sizes;
  stream.ForEachSet([&](const SetView& set) {
    ids.push_back(set.id);
    sizes.push_back(set.size());
  });
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 1, 3}));
}

TEST(SetStreamTest, ExposesMetadata) {
  SetSystem s = MakeSystem();
  SetStream stream(&s);
  EXPECT_EQ(stream.num_elements(), 4u);
  EXPECT_EQ(stream.num_sets(), 3u);
}

TEST(SpaceTrackerTest, TracksCurrentAndPeak) {
  SpaceTracker t;
  t.Charge(100);
  EXPECT_EQ(t.current_words(), 100u);
  EXPECT_EQ(t.peak_words(), 100u);
  t.Charge(50);
  EXPECT_EQ(t.peak_words(), 150u);
  t.Release(120);
  EXPECT_EQ(t.current_words(), 30u);
  EXPECT_EQ(t.peak_words(), 150u);  // peak persists
  t.Charge(10);
  EXPECT_EQ(t.peak_words(), 150u);
}

TEST(SpaceTrackerTest, SetCurrentUpdatesPeak) {
  SpaceTracker t;
  t.SetCurrent(40);
  EXPECT_EQ(t.peak_words(), 40u);
  t.SetCurrent(20);
  EXPECT_EQ(t.current_words(), 20u);
  EXPECT_EQ(t.peak_words(), 40u);
  t.SetCurrent(90);
  EXPECT_EQ(t.peak_words(), 90u);
}

TEST(SpaceTrackerTest, ResetClearsEverything) {
  SpaceTracker t;
  t.Charge(77);
  t.Reset();
  EXPECT_EQ(t.current_words(), 0u);
  EXPECT_EQ(t.peak_words(), 0u);
}

TEST(SpaceTrackerTest, ParallelComposition) {
  SpaceTracker t;
  t.Charge(10);
  t.AddParallelPeak(100);
  EXPECT_EQ(t.peak_words(), 110u);
}

TEST(SpaceTrackerDeathTest, OverReleaseAborts) {
  SpaceTracker t;
  t.Charge(5);
  EXPECT_DEATH(t.Release(6), "CHECK failed");
}

}  // namespace
}  // namespace streamcover
