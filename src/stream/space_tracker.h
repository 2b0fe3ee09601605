// Working-memory accounting for streaming algorithms.
//
// Space is measured in 64-bit words retained by the algorithm *between*
// stream items: solution ids, samples, stored projections, residual
// bitsets, per-element pointers. Transient scratch proportional to the
// current stream item is free, per the usual streaming convention.
// Algorithms charge and release explicitly; the peak is what benches
// report against the paper's space bounds.

#ifndef STREAMCOVER_STREAM_SPACE_TRACKER_H_
#define STREAMCOVER_STREAM_SPACE_TRACKER_H_

#include <cstdint>

#include "util/check.h"

namespace streamcover {

/// Word-granular memory meter with peak tracking.
class SpaceTracker {
 public:
  /// Adds `words` to the current footprint.
  void Charge(uint64_t words) {
    current_ += words;
    if (current_ > peak_) peak_ = current_;
  }

  /// Removes `words`; must not exceed the current footprint.
  void Release(uint64_t words) {
    SC_CHECK_LE(words, current_);
    current_ -= words;
  }

  /// Sets the current footprint to `words` (convenience for
  /// recomputed-from-scratch structures like a shrinking sample).
  void SetCurrent(uint64_t words) {
    current_ = words;
    if (current_ > peak_) peak_ = current_;
  }

  uint64_t current_words() const { return current_; }
  uint64_t peak_words() const { return peak_; }

  void Reset() {
    current_ = 0;
    peak_ = 0;
  }

  /// Folds another tracker's peak in as if it ran in parallel with this
  /// one (space adds up; used for the "guess k in parallel" composition).
  void AddParallelPeak(uint64_t peak_words) {
    peak_ += peak_words;
    // Parallel composition: the combined footprint peaks at the sum.
  }

 private:
  uint64_t current_ = 0;
  uint64_t peak_ = 0;
};

}  // namespace streamcover

#endif  // STREAMCOVER_STREAM_SPACE_TRACKER_H_
