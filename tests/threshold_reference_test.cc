// The threshold family against test-side references: the [ER14]/[CW16]
// sieve, progressive_greedy and streaming_max_cover as plain loops that
// run every kernel on every set. The sieve reference filters each set
// against its residual and records backups from that residual in every
// pass. The library skips sets smaller than the pass threshold and
// records backups in pass 1 only; both rules are exact, so covers (in
// pick order), success, passes, physical scans and space words must
// match the references on every instance, in memory and over SCOVRB01,
// at scan_threads 1 and 4 and threads 1 and 4. A GainTracker riding the
// scheduler's delta bus must also end where one fed the reference
// sieve's deltas ends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/baseline_result.h"
#include "baselines/threshold_greedy.h"
#include "core/instance.h"
#include "core/solver_registry.h"
#include "core/workload_registry.h"
#include "reference_kernels.h"
#include "setsystem/binary_io.h"
#include "setsystem/transposed_index.h"
#include "stream/mmap_set_source.h"
#include "stream/pass_scheduler.h"
#include "stream/set_stream.h"
#include "stream/space_tracker.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/cover_kernels.h"
#include "util/mathutil.h"

namespace streamcover {
namespace {

// --- References: every kernel on every set -----------------------------

/// The sieve with the residual filter and backup walk in every pass.
class ReferenceSieve final : public ScanConsumer {
 public:
  ReferenceSieve(uint32_t n, uint32_t p, double coverage_fraction)
      : p_(p),
        dn_(static_cast<double>(std::max(n, 2u))),
        uncovered_(n, true),
        backup_(n, UINT32_MAX),
        remaining_(n) {
    allowed_uncovered_ = AllowedUncovered(n, coverage_fraction);
    tracker_.Charge(uncovered_.WordCount());
    tracker_.Charge(n);
    threshold_ = std::pow(
        dn_, static_cast<double>(p_) / static_cast<double>(p_ + 1));
  }

  void OnSet(const SetView& set) override {
    if (done_) return;
    residual_.clear();
    const size_t gain =
        reference::FilterInto(set.elems, uncovered_.bits(), residual_);
    for (uint32_t e : residual_) {
      if (backup_[e] == UINT32_MAX) backup_[e] = set.id;
    }
    if (remaining_ <= allowed_uncovered_) return;
    if (gain > 0 && static_cast<double>(gain) >= threshold_) {
      cover_.set_ids.push_back(set.id);
      tracker_.Charge(1);
      for (uint32_t e : residual_) uncovered_.Reset(e);
      pass_delta_.insert(pass_delta_.end(), residual_.begin(),
                         residual_.end());
      remaining_ -= gain;
    }
  }

  void OnPassEnd() override {
    if (done_) return;
    ++pass_index_;
    if (pass_index_ <= p_) {
      threshold_ = std::pow(dn_, static_cast<double>(p_ + 1 - pass_index_) /
                                     static_cast<double>(p_ + 1));
      Flush();
      return;
    }
    for (uint32_t e : uncovered_.ToVector()) {
      if (remaining_ <= allowed_uncovered_) break;
      if (!uncovered_.Test(e) || backup_[e] == UINT32_MAX) continue;
      cover_.set_ids.push_back(backup_[e]);
      tracker_.Charge(1);
      uncovered_.Reset(e);
      pass_delta_.push_back(e);
      --remaining_;
    }
    cover_.Deduplicate();
    success_ = uncovered_.Count() <= allowed_uncovered_;
    Flush();
    done_ = true;
  }

  bool done() const override { return done_; }

  void PublishDeltasTo(PassScheduler* scheduler) { scheduler_ = scheduler; }

  RunResult Finish(const PassScheduler::SoloRun& run) {
    RunResult result;
    result.cover = cover_;
    result.success = success_;
    result.passes = run.logical_passes;
    result.physical_scans = run.physical_scans;
    result.space_words = tracker_.peak_words();
    return result;
  }

 private:
  void Flush() {
    if (scheduler_ != nullptr) scheduler_->PublishCoverageDelta(pass_delta_);
    pass_delta_.clear();
  }

  const uint32_t p_;
  const double dn_;
  uint64_t allowed_uncovered_ = 0;
  SpaceTracker tracker_;
  LiveMask uncovered_;
  std::vector<uint32_t> backup_;
  std::vector<uint32_t> residual_;
  std::vector<uint32_t> pass_delta_;
  PassScheduler* scheduler_ = nullptr;
  uint64_t remaining_ = 0;
  uint32_t pass_index_ = 1;
  double threshold_ = 0.0;
  Cover cover_;
  bool success_ = false;
  bool done_ = false;
};

RunResult ReferenceThreshold(const SetSystem& system, uint32_t p,
                             double coverage_fraction) {
  SetStream stream(&system);
  PassScheduler scheduler(stream);
  ReferenceSieve sieve(system.num_elements(), p, coverage_fraction);
  return sieve.Finish(scheduler.DriveToCompletion(sieve));
}

/// ProgressiveGreedy with the plain ThresholdPass loop.
RunResult ReferenceProgressive(const SetSystem& system,
                               double coverage_fraction) {
  SetStream stream(&system);
  const uint32_t n = system.num_elements();
  const uint64_t allowed_uncovered = AllowedUncovered(n, coverage_fraction);
  SpaceTracker tracker;
  LiveMask uncovered(n, true);
  tracker.Charge(uncovered.WordCount());
  uint64_t remaining = n;
  RunResult result;
  for (double threshold = static_cast<double>(n) / 2.0;; threshold /= 2.0) {
    if (threshold < 1.0) threshold = 1.0;
    stream.ForEachSet([&](const SetView& set) {
      if (remaining <= allowed_uncovered) return;
      const size_t gain =
          reference::CountUncovered(set.elems, uncovered.bits());
      if (gain > 0 && static_cast<double>(gain) >= threshold) {
        result.cover.set_ids.push_back(set.id);
        tracker.Charge(1);
        reference::MarkCovered(set.elems, uncovered.bits());
        remaining -= gain;
      }
    });
    if (remaining <= allowed_uncovered) break;
    if (threshold == 1.0) break;
  }
  result.success = remaining <= allowed_uncovered;
  result.passes = stream.passes();
  result.physical_scans = result.passes;
  result.space_words = tracker.peak_words();
  return result;
}

/// StreamingMaxCover's plain loop; budget 0 means |U|, as in the
/// registry.
RunResult ReferenceMaxCover(const SetSystem& system, uint32_t budget) {
  SetStream stream(&system);
  const uint32_t n = system.num_elements();
  if (budget == 0) budget = n;
  SpaceTracker tracker;
  LiveMask uncovered(n, true);
  tracker.Charge(uncovered.WordCount());
  uint64_t covered = 0;
  RunResult result;
  for (double threshold = static_cast<double>(n) / 2.0;; threshold /= 2.0) {
    if (threshold < 1.0) threshold = 1.0;
    stream.ForEachSet([&](const SetView& set) {
      if (result.cover.size() >= budget) return;
      const size_t gain =
          reference::CountUncovered(set.elems, uncovered.bits());
      if (gain > 0 && static_cast<double>(gain) >= threshold) {
        result.cover.set_ids.push_back(set.id);
        tracker.Charge(1);
        covered += gain;
        reference::MarkCovered(set.elems, uncovered.bits());
      }
    });
    if (result.cover.size() >= budget) break;
    if (!uncovered.Any()) break;
    if (threshold == 1.0) break;
  }
  result.success = covered >= n;
  result.passes = stream.passes();
  result.physical_scans = result.passes;
  result.space_words = tracker.peak_words();
  return result;
}

// --- Instances ------------------------------------------------------------

SetSystem FromWorkload(const std::string& name, uint32_t n, uint32_t m,
                       uint32_t k, uint32_t s) {
  WorkloadParams params;
  params.n = n;
  params.m = m;
  params.k = k;
  params.max_set_size = s;
  params.seed = 3;
  std::string error;
  std::optional<Instance> instance = MakeWorkload(name, params, &error);
  SC_CHECK(instance.has_value());
  instance->Prepare();
  return *instance->materialized();
}

/// The three thresholds of n = 4096 at p = 3: 4096^{3/4}, 4096^{2/4}
/// and 4096^{1/4} (512, 64 and 8, up to pow's rounding).
std::vector<double> BoundaryThresholds() {
  std::vector<double> thresholds;
  for (const double exponent : {0.75, 0.5, 0.25}) {
    thresholds.push_back(std::pow(4096.0, exponent));
  }
  return thresholds;
}

/// For each threshold t: sets of size floor(t) - 1, floor(t), ceil(t)
/// and ceil(t) + 1 on fresh elements, then a set of size ceil(t) + 1
/// that shares two elements with the first of them that t's pass takes,
/// so its size clears t and its gain falls one short. Singletons on half
/// of the smallest set's elements come first in the stream, so the
/// backups that finish the cover point at two kinds of set. Trailing
/// singletons keep U coverable.
SetSystem BoundarySystem() {
  constexpr uint32_t kN = 4096;
  uint32_t next = 0;
  auto fresh = [&](uint32_t size) {
    std::vector<uint32_t> set;
    for (uint32_t i = 0; i < size; ++i) set.push_back(next++);
    return set;
  };
  std::vector<std::vector<uint32_t>> groups;
  for (const double t : BoundaryThresholds()) {
    const uint32_t lo = static_cast<uint32_t>(std::floor(t));
    const uint32_t hi = static_cast<uint32_t>(std::ceil(t));
    std::vector<uint32_t> taken_first;
    for (const uint32_t size : {lo - 1, lo, hi, hi + 1}) {
      groups.push_back(fresh(size));
      if (taken_first.empty() && size >= t) taken_first = groups.back();
    }
    std::vector<uint32_t> shadowed = fresh(hi - 1);
    shadowed.push_back(taken_first[0]);
    shadowed.push_back(taken_first[1]);
    groups.push_back(std::move(shadowed));
  }
  SetSystem::Builder builder(kN);
  const std::vector<uint32_t>& smallest = groups[groups.size() - 5];
  for (size_t i = 0; i < smallest.size(); i += 2) {
    builder.AddSet({smallest[i]});
  }
  for (const std::vector<uint32_t>& set : groups) builder.AddSet(set);
  for (uint32_t e = next; e < kN; ++e) builder.AddSet({e});
  return std::move(builder).Build();
}

struct Case {
  std::string name;
  SetSystem system;
  std::string binary_path;
};

/// Every instance, each also written as SCOVRB01 under a name tagged by
/// the calling test: ctest runs the tests of this suite in parallel
/// processes, so no two may share a file.
std::vector<Case> Cases() {
  std::vector<Case> cases;
  // s = 64 sits below pass 1's threshold at p = 2 (4096^{2/3} = 256), so
  // that pass skips every set.
  cases.push_back({"sparse", FromWorkload("sparse", 4096, 8192, 8, 64), ""});
  cases.push_back({"planted", FromWorkload("planted", 2000, 4000, 12, 32), ""});
  cases.push_back({"zipf", FromWorkload("zipf", 3000, 6000, 8, 96), ""});
  cases.push_back({"boundary", BoundarySystem(), ""});
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (Case& c : cases) {
    c.binary_path = ::testing::TempDir() + "/threshold_ref_" + test + "_" +
                    c.name + ".bin";
    std::string error;
    EXPECT_TRUE(WriteBinarySetSystem(c.system, c.binary_path, &error))
        << error;
  }
  return cases;
}

// --- Library runs against the references --------------------------------

/// `base` at every source, threads and scan_threads the suite covers.
void ExpectMatchesEverywhere(const Case& c, const std::string& solver,
                             const RunOptions& base,
                             const RunResult& expect) {
  std::string error;
  std::optional<Instance> disk = Instance::FromFile(c.binary_path, &error);
  ASSERT_TRUE(disk.has_value()) << error;
  Instance memory = Instance::WrapSystem(&c.system, {c.name, "memory"});
  for (const bool from_disk : {false, true}) {
    for (const uint32_t threads : {1u, 4u}) {
      for (const uint32_t scan_threads : {1u, 4u}) {
        if (!from_disk && scan_threads > 1) continue;  // no decoder
        RunOptions options = base;
        options.threads = threads;
        options.scan_threads = scan_threads;
        const std::string tag =
            c.name + " " + solver + (from_disk ? " disk" : " memory") +
            " threads=" + std::to_string(threads) +
            " scan_threads=" + std::to_string(scan_threads);
        RunResult got =
            RunSolver(solver, from_disk ? *disk : memory, options);
        ASSERT_TRUE(got.ok()) << tag << ": " << got.error;
        EXPECT_EQ(got.cover.set_ids, expect.cover.set_ids) << tag;
        EXPECT_EQ(got.success, expect.success) << tag;
        EXPECT_EQ(got.passes, expect.passes) << tag;
        EXPECT_EQ(got.physical_scans, expect.physical_scans) << tag;
        EXPECT_EQ(got.space_words, expect.space_words) << tag;
      }
    }
  }
}

TEST(ThresholdReferenceTest, SieveMatchesReference) {
  for (const Case& c : Cases()) {
    for (const uint32_t p : {1u, 2u, 3u, 4u, 6u}) {
      for (const double coverage : {1.0, 0.9}) {
        SCOPED_TRACE("p=" + std::to_string(p) +
                     " coverage=" + std::to_string(coverage));
        RunOptions options;
        options.threshold_passes = p;
        options.coverage_fraction = coverage;
        ExpectMatchesEverywhere(c, "threshold_greedy", options,
                                ReferenceThreshold(c.system, p, coverage));
      }
    }
  }
}

TEST(ThresholdReferenceTest, ProgressiveGreedyMatchesReference) {
  for (const Case& c : Cases()) {
    for (const double coverage : {1.0, 0.9}) {
      SCOPED_TRACE("coverage=" + std::to_string(coverage));
      RunOptions options;
      options.coverage_fraction = coverage;
      ExpectMatchesEverywhere(c, "progressive_greedy", options,
                              ReferenceProgressive(c.system, coverage));
    }
  }
}

TEST(ThresholdReferenceTest, StreamingMaxCoverMatchesReference) {
  for (const Case& c : Cases()) {
    for (const uint32_t budget : {0u, 10u}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      RunOptions options;
      options.max_cover_budget = budget;
      ExpectMatchesEverywhere(c, "streaming_max_cover", options,
                              ReferenceMaxCover(c.system, budget));
    }
  }
}

TEST(ThresholdReferenceTest, BoundaryInstanceStraddlesEveryPass) {
  // Not a degenerate instance: at p = 3 the reference takes a set of
  // size exactly ceil(t) for each of the three thresholds.
  const std::vector<Case> cases = Cases();
  const Case& boundary = cases.back();
  ASSERT_EQ(boundary.name, "boundary");
  const RunResult expect = ReferenceThreshold(boundary.system, 3, 1.0);
  EXPECT_TRUE(expect.success);
  EXPECT_EQ(expect.passes, 3u);
  std::vector<size_t> sizes;
  for (const uint32_t id : expect.cover.set_ids) {
    sizes.push_back(boundary.system.GetSet(id).size());
  }
  for (const double t : BoundaryThresholds()) {
    const size_t hi = static_cast<size_t>(std::ceil(t));
    EXPECT_NE(std::find(sizes.begin(), sizes.end(), hi), sizes.end())
        << "no pick of size " << hi;
  }
}

TEST(ThresholdReferenceTest, DeltaBusGainsMatchReference) {
  // A GainTracker on the scheduler's bus sees the library sieve's
  // per-pass deltas; a second one is fed the reference sieve's. Both
  // must end with the same gain for every set.
  for (const Case& c : Cases()) {
    const TransposedIndex index = [&] {
      TransposedIndex::Builder builder(c.system.num_elements());
      for (uint32_t s = 0; s < c.system.num_sets(); ++s) {
        builder.CountSet(c.system.GetSet(s));
      }
      builder.PrepareFill();
      for (uint32_t s = 0; s < c.system.num_sets(); ++s) {
        builder.FillSet(s, c.system.GetSet(s));
      }
      return std::move(builder).Build();
    }();
    const DynamicBitset all(c.system.num_elements(), true);
    for (const double coverage : {1.0, 0.9}) {
      GainTracker expect(&index, c.system.num_sets());
      expect.InitFromMask(all);
      RunResult expect_run;
      {
        SetStream stream(&c.system);
        PassScheduler scheduler(stream);
        scheduler.AddDeltaListener(&expect);
        ReferenceSieve sieve(c.system.num_elements(), 3, coverage);
        sieve.PublishDeltasTo(&scheduler);
        expect_run = sieve.Finish(scheduler.DriveToCompletion(sieve));
      }
      for (const bool from_disk : {false, true}) {
        for (const uint32_t threads : {1u, 4u}) {
          const std::string tag = c.name + (from_disk ? " disk" : " memory") +
                                  " threads=" + std::to_string(threads) +
                                  " coverage=" + std::to_string(coverage);
          std::string error;
          std::unique_ptr<SetSource> source;
          if (from_disk) {
            source = OpenDiskSetSource(c.binary_path, &error);
            ASSERT_NE(source, nullptr) << error;
          }
          SetStream stream = from_disk ? SetStream(std::move(source))
                                       : SetStream(&c.system);
          stream.set_scan_threads(threads);
          PassScheduler scheduler(stream, threads);
          GainTracker got(&index, c.system.num_sets());
          got.InitFromMask(all);
          scheduler.AddDeltaListener(&got);
          const BaselineResult result =
              PolynomialThresholdCover(scheduler, 3, coverage);
          EXPECT_EQ(got.gain_updates(), expect.gain_updates()) << tag;
          for (uint32_t s = 0; s < c.system.num_sets(); ++s) {
            ASSERT_EQ(got.gain(s), expect.gain(s)) << tag << " set " << s;
          }
          EXPECT_EQ(result.cover.set_ids, expect_run.cover.set_ids) << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamcover
