// WorkerPool — resident threads that run index loops.
//
// PassScheduler owns one pool per solve: its batch dispatch and its
// pass ends are ParallelFor loops over the live consumers, and a pass
// end may fan its own work (LazyGreedy's ranged index build) back out
// onto the same pool. A pool's threads start once, in its constructor,
// and are joined in its destructor; a loop only wakes them.
//
// Claiming is dynamic: the calling thread and every idle worker take
// the next unclaimed index from one atomic counter, so uneven indices
// (an iterSetCover guess with k = 1 stores every set, k = 4096 almost
// none) balance themselves. Idle workers help the newest loop first.
//
// Nesting: ParallelFor may be called from inside a task. The caller of
// a loop (its owner) claims indices until none is left and then waits
// only for indices already running on other threads; it never waits on
// an index that has not started, so nested loops cannot deadlock.

#ifndef STREAMCOVER_UTIL_WORKER_POOL_H_
#define STREAMCOVER_UTIL_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace streamcover {

class WorkerPool {
 public:
  /// Starts `threads` - 1 resident workers; the caller of each loop is
  /// the remaining one. `threads` <= 1 starts none and runs every loop
  /// inline.
  explicit WorkerPool(uint32_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Threads a loop can run on, the caller included.
  uint32_t threads() const { return threads_; }

  /// Runs fn(i) exactly once for every i in [0, count), on the calling
  /// thread and any idle workers, and returns when every index has
  /// finished. A loop of one index, or on a one-thread pool, runs
  /// inline. If fn throws, the indices not yet claimed are skipped and
  /// the first exception is rethrown once every running index has
  /// finished.
  template <typename Fn>
  void ParallelFor(size_t count, const Fn& fn) {
    Run(count,
        [](const void* body, size_t i) {
          (*static_cast<const Fn*>(body))(i);
        },
        &fn);
  }

  /// The pool whose loop this thread is running an index of (worker or
  /// caller), or nullptr outside any loop.
  static WorkerPool* Current();

 private:
  struct Job;
  using Call = void (*)(const void* body, size_t index);

  void Run(size_t count, Call call, const void* body);
  /// Claims and runs `job`'s indices until none is left.
  void Drain(Job& job);
  void WorkerLoop();
  void StopAndJoin();
  /// The newest job with an unclaimed index, or nullptr. Holds mu_.
  Job* NewestOpenJob() const;

  uint32_t threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< a job was posted, or stop_
  std::condition_variable done_cv_;  ///< a job lost its last helper
  std::vector<Job*> jobs_;           ///< open loops, oldest first
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_WORKER_POOL_H_
