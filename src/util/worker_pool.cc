#include "util/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace streamcover {
namespace {

thread_local WorkerPool* t_current = nullptr;

}  // namespace

/// One ParallelFor call. It lives on its owner's stack, so the owner
/// returns only once no worker holds it (`helpers` == 0).
struct WorkerPool::Job {
  Job(Call call, const void* body, size_t count)
      : call(call), body(body), count(count) {}

  const Call call;
  const void* const body;
  const size_t count;
  std::atomic<size_t> next{0};  ///< the next unclaimed index
  int helpers = 0;              ///< workers inside Drain; guarded by mu_
  std::exception_ptr error;     ///< the first throw; guarded by mu_
};

WorkerPool::WorkerPool(uint32_t threads) : threads_(std::max(threads, 1u)) {
  workers_.reserve(threads_ - 1);
  try {
    for (uint32_t w = 1; w < threads_; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // No destructor runs for a half-built pool: join what started.
    StopAndJoin();
    throw;
  }
}

WorkerPool::~WorkerPool() { StopAndJoin(); }

void WorkerPool::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

WorkerPool* WorkerPool::Current() { return t_current; }

void WorkerPool::Run(size_t count, Call call, const void* body) {
  if (count == 0) return;
  // The caller runs indices of this loop too, so it reports this pool
  // while the loop lasts (a pass end it runs may fan out again).
  struct CurrentScope {
    WorkerPool* outer = t_current;
    explicit CurrentScope(WorkerPool* pool) { t_current = pool; }
    ~CurrentScope() { t_current = outer; }
  } scope(this);
  if (workers_.empty() || count == 1) {
    for (size_t i = 0; i < count; ++i) call(body, i);
    return;
  }
  Job job(call, body, count);
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(&job);
  }
  work_cv_.notify_all();
  Drain(job);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Every index is claimed; unlisting the job stops new helpers, and
    // the ones already counted finish their last index before leaving.
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    done_cv_.wait(lock, [&] { return job.helpers == 0; });
    error = job.error;
  }
  if (error) std::rethrow_exception(error);
}

void WorkerPool::Drain(Job& job) {
  for (size_t i = job.next++; i < job.count; i = job.next++) {
    try {
      job.call(job.body, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
      job.next = job.count;  // skip the indices nobody claimed yet
    }
  }
}

WorkerPool::Job* WorkerPool::NewestOpenJob() const {
  for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
    if ((*it)->next < (*it)->count) {
      return *it;
    }
  }
  return nullptr;
}

void WorkerPool::WorkerLoop() {
  t_current = this;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Job* job = nullptr;
    work_cv_.wait(lock, [&] {
      return stop_ || (job = NewestOpenJob()) != nullptr;
    });
    if (job == nullptr) return;  // stop_
    // Counted under the lock that lists the job, so its owner cannot
    // unlist it and return while this worker still holds it.
    ++job->helpers;
    lock.unlock();
    Drain(*job);
    lock.lock();
    if (--job->helpers == 0) done_cv_.notify_all();
  }
}

}  // namespace streamcover
