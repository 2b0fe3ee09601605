// Cooperative cancellation with deadlines.
//
// The serving layer (src/serve/) answers each request under a latency
// budget; the paper's solvers are multi-pass loops that cannot be
// preempted safely mid-update. A CancelToken bridges the two the way
// tarantool's box_timeout does: the owner arms a wall-clock deadline (or
// fires Cancel() by hand during drain), and the solver's scan path polls
// cancelled() at batch granularity — once per batch in every
// SetSource::ScanBatches (stream/set_source.h), which every solver
// scans, the geometric one included, and every few hundred sets inside
// the binary decoder — and unwinds through the
// existing stream-failure contract with the sticky error
// `kDeadlineExceededError`. Nothing is ever killed mid-write, so a
// cancelled run leaves shared instances untouched and the worker thread
// immediately reusable.
//
// Thread-safety: Cancel() and cancelled() may race freely (atomic flag,
// immutable deadline). One token serves exactly one run; tokens are
// neither copyable nor reusable across requests.

#ifndef STREAMCOVER_UTIL_CANCEL_TOKEN_H_
#define STREAMCOVER_UTIL_CANCEL_TOKEN_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace streamcover {

/// The sticky SetSource/RunResult error a deadline-cancelled run
/// surfaces. Exactly this string, with no path or set prefix, so
/// dispatchers and clients can match it as an error *code*.
inline constexpr const char kDeadlineExceededError[] = "deadline_exceeded";

/// A manually fireable cancellation flag with an optional monotonic
/// deadline. Checks are cheap: one relaxed atomic load, plus one
/// steady_clock read when a deadline is armed.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// No deadline; fires only via Cancel().
  CancelToken() = default;

  /// Fires at `deadline` (or earlier via Cancel()).
  explicit CancelToken(Clock::time_point deadline)
      : has_deadline_(true), deadline_(deadline) {}

  /// Fires `ms` milliseconds from now. ms <= 0 is already expired —
  /// the idiom for "this request's budget was spent in the queue".
  static CancelToken AfterMillis(int64_t ms) {
    return CancelToken(Clock::now() + std::chrono::milliseconds(ms));
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token by hand (drain, client disconnect). Idempotent;
  /// safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() ran or the deadline passed. Monotonic: never
  /// reverts to false.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (!has_deadline_) return false;
    if (Clock::now() < deadline_) return false;
    // Latch the verdict so later polls skip the clock read.
    cancelled_.store(true, std::memory_order_relaxed);
    return true;
  }

  bool has_deadline() const { return has_deadline_; }

  /// Milliseconds until the deadline (negative once past); 0 budget
  /// semantics are the caller's. Meaningless without a deadline.
  double RemainingMillis() const {
    return std::chrono::duration<double, std::milli>(deadline_ -
                                                     Clock::now())
        .count();
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_CANCEL_TOKEN_H_
