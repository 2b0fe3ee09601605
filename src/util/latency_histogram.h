// Log-bucketed latency histogram for the serving layer.
//
// HDR-style: bucket boundaries grow geometrically (factor 2^(1/8), so
// every reported quantile is within ~9% of the true value), counters
// are relaxed atomics, and Record never allocates or locks — worker
// threads on the serve hot path stamp a completed request with one
// fetch_add. Snapshots fold the buckets into the p50/p90/p99/max cells
// of the `{"op":"stats"}` endpoint.
//
// Thread-safety: Record is wait-free and safe from any thread.
// TakeSnapshot reads concurrently-updated counters without
// synchronization barriers — a snapshot taken during traffic is a
// consistent-enough view for monitoring, the usual histogram contract.

#ifndef STREAMCOVER_UTIL_LATENCY_HISTOGRAM_H_
#define STREAMCOVER_UTIL_LATENCY_HISTOGRAM_H_

#include <atomic>
#include <cstdint>

namespace streamcover {

/// Aggregated view of a histogram at one instant.
struct LatencySnapshot {
  uint64_t count = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  double mean_ms = 0;
};

/// Fixed-size log-bucketed histogram over [1us, ~1000s]. Values below
/// the floor land in bucket 0; values above the ceiling clamp to the
/// last bucket (and still drive max exactly).
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample. Wait-free; safe from any thread.
  void Record(double millis);

  /// Folds the current counters into quantiles. Quantiles are bucket
  /// upper bounds (<= 2^(1/8) above the true value); max is exact.
  LatencySnapshot TakeSnapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  // 2^(1/8) growth from 1us: 8 sub-buckets per octave, 30 octaves
  // covers 1us..2^30us ≈ 18 minutes per bucket run; 248 buckets total.
  static constexpr int kSubBucketsPerOctave = 8;
  static constexpr int kOctaves = 31;
  static constexpr int kNumBuckets = kSubBucketsPerOctave * kOctaves;

  static int BucketFor(double micros);
  static double BucketUpperMillis(int bucket);

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
};

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_LATENCY_HISTOGRAM_H_
