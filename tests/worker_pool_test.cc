// WorkerPool — the scheduler's resident threads.
//
// Every index runs exactly once; loops nest without deadlock, also
// when every worker is busy; Current() names the pool on workers and on
// the calling thread while it runs its own indices; a one-thread pool
// runs inline; a throw reaches the caller only after the indices that
// were running have finished. pass_scheduler_test drives the same pool
// through the scheduler; CI runs this suite under TSan.

#include "util/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace streamcover {
namespace {

using std::chrono::milliseconds;

/// Waits until `count` reaches `target`, at most ~10 s, so a broken
/// pool fails the test instead of hanging it.
bool AwaitCount(const std::atomic<int>& count, int target) {
  for (int spin = 0; spin < 10000; ++spin) {
    if (count.load() >= target) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return false;
}

TEST(WorkerPoolTest, EveryIndexRunsExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  for (size_t count = 0; count <= 1000; ++count) {
    std::vector<std::atomic<int>> hits(count);
    pool.ParallelFor(count, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count " << count << " index " << i;
    }
  }
}

TEST(WorkerPoolTest, NestedLoopsFinishWhileEveryWorkerIsBusy) {
  // Each outer index holds its thread until all four have started, so
  // every worker is busy when the inner loops are issued; each inner
  // index issues one more level. The owners claim their own indices,
  // so nothing waits on an index that has not started.
  WorkerPool pool(4);
  std::atomic<int> started{0};
  std::vector<std::atomic<int>> hits(4 * 5 * 3);
  pool.ParallelFor(4, [&](size_t outer) {
    ++started;
    ASSERT_TRUE(AwaitCount(started, 4));
    pool.ParallelFor(5, [&](size_t middle) {
      pool.ParallelFor(3, [&](size_t inner) {
        ++hits[(outer * 5 + middle) * 3 + inner];
      });
    });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, CurrentNamesThePoolInsideTasksOnly) {
  EXPECT_EQ(WorkerPool::Current(), nullptr);
  WorkerPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> wrong{0};
  std::atomic<int> on_caller{0};
  // Three indices held until all have started: one runs on the caller.
  pool.ParallelFor(3, [&](size_t) {
    ++started;
    AwaitCount(started, 3);
    if (WorkerPool::Current() != &pool) ++wrong;
    if (std::this_thread::get_id() == caller) ++on_caller;
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(on_caller.load(), 1);
  EXPECT_EQ(WorkerPool::Current(), nullptr);

  // A loop of one index runs inline, and still names the pool.
  pool.ParallelFor(1, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(WorkerPool::Current(), &pool);
  });
  EXPECT_EQ(WorkerPool::Current(), nullptr);

  // A second pool's loop inside a task names that pool, then the outer
  // one again.
  WorkerPool inner(2);
  pool.ParallelFor(2, [&](size_t) {
    inner.ParallelFor(2, [&](size_t) {
      if (WorkerPool::Current() != &inner) ++wrong;
    });
    if (WorkerPool::Current() != &pool) ++wrong;
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(WorkerPool::Current(), nullptr);
}

TEST(WorkerPoolTest, OneThreadPoolRunsInlineInOrder) {
  for (const uint32_t threads : {0u, 1u}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.threads(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    pool.ParallelFor(50, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(WorkerPool::Current(), &pool);
      order.push_back(i);
    });
    ASSERT_EQ(order.size(), 50u);
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    EXPECT_EQ(WorkerPool::Current(), nullptr);
  }
}

TEST(WorkerPoolTest, TenThousandBackToBackLoops) {
  WorkerPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int call = 0; call < 10000; ++call) {
    const size_t count = 1 + static_cast<size_t>(call % 9);
    pool.ParallelFor(count, [&](size_t i) { sum += i + 1; });
  }
  uint64_t expect = 0;
  for (int call = 0; call < 10000; ++call) {
    const uint64_t count = 1 + static_cast<uint64_t>(call % 9);
    expect += count * (count + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expect);
}

TEST(WorkerPoolTest, DestructionRightAfterConstruction) {
  for (int i = 0; i < 50; ++i) {
    WorkerPool pool(4);
  }
  WorkerPool used(3);
  used.ParallelFor(3, [](size_t) {});
}

/// Runs a 4-index loop on a 4-thread pool whose indices all hold their
/// thread until every one has started. The index picked by `thrower`
/// throws; the others sleep, then record that they finished. Returns
/// how many had finished when the exception reached the caller.
template <typename Pick>
int FinishedWhenTheThrowArrives(const Pick& thrower, std::string* what) {
  WorkerPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::atomic<bool> thrown{false};
  try {
    pool.ParallelFor(4, [&](size_t) {
      ++started;
      AwaitCount(started, 4);
      if (thrower() && !thrown.exchange(true)) {
        throw std::runtime_error("index failed");
      }
      std::this_thread::sleep_for(milliseconds(50));
      ++finished;
    });
  } catch (const std::runtime_error& error) {
    *what = error.what();
    return finished.load();
  }
  *what = "";
  return -1;
}

TEST(WorkerPoolTest, ThrowOnTheCallerWaitsForRunningIndices) {
  const std::thread::id caller = std::this_thread::get_id();
  std::string what;
  const int finished = FinishedWhenTheThrowArrives(
      [&] { return std::this_thread::get_id() == caller; }, &what);
  EXPECT_EQ(what, "index failed");
  EXPECT_EQ(finished, 3);
}

TEST(WorkerPoolTest, ThrowOnAWorkerWaitsForRunningIndices) {
  const std::thread::id caller = std::this_thread::get_id();
  std::string what;
  const int finished = FinishedWhenTheThrowArrives(
      [&] { return std::this_thread::get_id() != caller; }, &what);
  EXPECT_EQ(what, "index failed");
  EXPECT_EQ(finished, 3);
}

TEST(WorkerPoolTest, PoolStaysUsableAfterAThrow) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   100,
                   [](size_t i) {
                     if (i == 7) throw std::runtime_error("seven");
                   }),
               std::runtime_error);
  std::atomic<int> hits{0};
  pool.ParallelFor(100, [&](size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 100);
}

}  // namespace
}  // namespace streamcover
