// PassScheduler: one physical scan per round serves every live
// consumer. Covers per-consumer pass attribution, thread-count
// invariance (also the TSan target: >= 4 consumers fanned out over
// workers), pass-end work running concurrently on the workers (and
// inline at one worker), a pool of one thread per live consumer up to
// `threads`, the determinism guarantee that the multiplexed
// iterSetCover is byte-identical to the old sequential per-guess path
// (in-memory and file-backed), the re-scan regression (source scans ==
// physical scans, not sequential scans), heterogeneous consumers
// (DIMV14 + threshold sieves sharing scans), the winner-preserving
// early-exit rule, and guesses that provably coincide running once
// (also a TSan target: a leader writes its followers from a worker).

#include "stream/pass_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/dimv14.h"
#include "baselines/threshold_greedy.h"
#include "core/iter_set_cover.h"
#include "gtest/gtest.h"
#include "offline/exact.h"
#include "offline/greedy.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "setsystem/io.h"
#include "stream/mmap_set_source.h"
#include "stream/set_source.h"
#include "util/rng.h"

namespace streamcover {
namespace {

PlantedInstance MakePlanted(uint64_t seed, uint32_t n = 300,
                            uint32_t m = 600, uint32_t k = 6) {
  PlantedOptions options;
  options.num_elements = n;
  options.num_sets = m;
  options.cover_size = k;
  options.noise_max_size = 20;
  Rng rng(seed);
  return GeneratePlanted(options, rng);
}

IterSetCoverOptions SmallIterOptions() {
  IterSetCoverOptions options;
  options.sample_constant = 0.05;
  options.seed = 11;
  return options;
}

// Consumes a fixed number of passes, accumulating an order-sensitive
// digest of everything it sees.
class CountingConsumer final : public ScanConsumer {
 public:
  explicit CountingConsumer(uint64_t passes_needed)
      : remaining_(passes_needed) {}

  void OnSet(const SetView& set) override {
    ++sets_seen_;
    digest_ = digest_ * 1000003ULL + set.id;
    for (uint32_t e : set.elems) digest_ = digest_ * 1000003ULL + e;
  }
  void OnPassEnd() override {
    if (remaining_ > 0) --remaining_;
    pass_end_thread_ = std::this_thread::get_id();
  }
  bool done() const override { return remaining_ == 0; }

  uint64_t sets_seen() const { return sets_seen_; }
  uint64_t digest() const { return digest_; }
  /// The thread the latest OnPassEnd ran on.
  std::thread::id pass_end_thread() const { return pass_end_thread_; }

 private:
  uint64_t remaining_;
  uint64_t sets_seen_ = 0;
  uint64_t digest_ = 0;
  std::thread::id pass_end_thread_;
};

// Needs one pass; its OnPassEnd waits (bounded) until every consumer
// sharing its Meeting has arrived, so a round can only finish with all
// of them met if their pass ends run at the same time.
class RendezvousConsumer final : public ScanConsumer {
 public:
  struct Meeting {
    std::mutex mu;
    std::condition_variable cv;
    int expected = 0;
    int arrived = 0;
  };

  explicit RendezvousConsumer(Meeting* meeting) : meeting_(meeting) {}

  void OnSet(const SetView&) override {}
  void OnPassEnd() override {
    std::unique_lock<std::mutex> lock(meeting_->mu);
    ++meeting_->arrived;
    meeting_->cv.notify_all();
    met_ = meeting_->cv.wait_for(lock, std::chrono::seconds(5), [this] {
      return meeting_->arrived == meeting_->expected;
    });
    thread_ = std::this_thread::get_id();
    done_ = true;
  }
  bool done() const override { return done_; }

  bool met() const { return met_; }
  std::thread::id thread() const { return thread_; }

 private:
  Meeting* meeting_;
  bool met_ = false;
  bool done_ = false;
  std::thread::id thread_;
};

// The pre-scheduler execution: one guess at a time, every logical pass
// a dedicated physical scan. The multiplexed run must reproduce it
// byte for byte.
StreamingResult SequentialPerGuessPath(SetStream& stream,
                                       const IterSetCoverOptions& options) {
  const uint32_t n = stream.num_elements();
  StreamingResult best;
  uint64_t passes_max = 0;
  uint64_t scans_total = 0;
  uint64_t space_sum = 0;
  uint64_t space_max = 0;
  for (uint64_t k = 1;; k *= 2) {
    StreamingResult guess = IterSetCoverSingleGuess(stream, k, options);
    passes_max = std::max(passes_max, guess.passes);
    scans_total += guess.passes;
    space_sum += guess.space_words_parallel;
    space_max = std::max(space_max, guess.space_words_max_guess);
    if (guess.success &&
        (!best.success || guess.cover.size() < best.cover.size())) {
      best = std::move(guess);
    }
    if (k >= n) break;
  }
  best.passes = passes_max;
  best.sequential_scans = scans_total;
  best.space_words_parallel = space_sum;
  best.space_words_max_guess = space_max;
  return best;
}

void ExpectSameOutcome(const StreamingResult& multiplexed,
                       const StreamingResult& sequential) {
  EXPECT_EQ(multiplexed.cover.set_ids, sequential.cover.set_ids);
  EXPECT_EQ(multiplexed.success, sequential.success);
  EXPECT_EQ(multiplexed.winning_k, sequential.winning_k);
  EXPECT_EQ(multiplexed.passes, sequential.passes);
  EXPECT_EQ(multiplexed.sequential_scans, sequential.sequential_scans);
  EXPECT_EQ(multiplexed.space_words_parallel,
            sequential.space_words_parallel);
  EXPECT_EQ(multiplexed.space_words_max_guess,
            sequential.space_words_max_guess);
}

// ExpectSameOutcome plus every remaining StreamingResult field.
void ExpectSameRun(const StreamingResult& a, const StreamingResult& b) {
  ExpectSameOutcome(a, b);
  EXPECT_EQ(a.physical_scans, b.physical_scans);
  EXPECT_EQ(a.gain_updates, b.gain_updates);
  EXPECT_EQ(a.sets_touched, b.sets_touched);
  EXPECT_TRUE(a.diagnostics == b.diagnostics);
}

// The default greedy, counting its Solve calls (atomically: pass ends
// solve concurrently on the workers).
class CountingOfflineSolver final : public OfflineSolver {
 public:
  OfflineResult Solve(const SetSystem& system) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return greedy_.Solve(system);
  }
  double Rho(uint32_t num_elements) const override {
    return greedy_.Rho(num_elements);
  }
  std::string name() const override { return "counting"; }
  uint64_t calls() const { return calls_.load(); }

 private:
  GreedySolver greedy_;
  mutable std::atomic<uint64_t> calls_{0};
};

TEST(PassSchedulerTest, OnePhysicalScanServesEveryLiveConsumer) {
  PlantedInstance inst = MakePlanted(1, 50, 80, 4);
  InMemorySetSource source(&inst.system);
  SetStream stream(&source);
  PassScheduler scheduler(stream);

  CountingConsumer one(1), two(2), four(4);
  const size_t s1 = scheduler.Register(&one);
  const size_t s2 = scheduler.Register(&two);
  const size_t s4 = scheduler.Register(&four);
  EXPECT_TRUE(scheduler.AnyLive());
  scheduler.RunToCompletion();

  // Rounds = the longest consumer's demand; each consumer was served
  // exactly as many passes as it needed, all from shared scans.
  EXPECT_EQ(scheduler.physical_scans(), 4u);
  EXPECT_EQ(stream.passes(), 4u);
  EXPECT_EQ(source.scans(), scheduler.physical_scans());
  EXPECT_EQ(scheduler.passes(s1), 1u);
  EXPECT_EQ(scheduler.passes(s2), 2u);
  EXPECT_EQ(scheduler.passes(s4), 4u);
  EXPECT_EQ(scheduler.max_passes(), 4u);
  EXPECT_EQ(scheduler.total_passes(), 7u);
  EXPECT_EQ(one.sets_seen(), 1u * inst.system.num_sets());
  EXPECT_EQ(two.sets_seen(), 2u * inst.system.num_sets());
  EXPECT_EQ(four.sets_seen(), 4u * inst.system.num_sets());
}

TEST(PassSchedulerTest, NoLiveConsumersMeansNoScan) {
  PlantedInstance inst = MakePlanted(2, 40, 60, 4);
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream);
  EXPECT_FALSE(scheduler.AnyLive());
  EXPECT_EQ(scheduler.RunRound(), 0u);
  EXPECT_EQ(scheduler.physical_scans(), 0u);
  EXPECT_EQ(stream.passes(), 0u);

  CountingConsumer spent(0);  // already done at registration
  scheduler.Register(&spent);
  EXPECT_FALSE(scheduler.AnyLive());
  EXPECT_EQ(scheduler.RunRound(), 0u);
  EXPECT_EQ(stream.passes(), 0u);
}

TEST(PassSchedulerTest, RetiredSlotsAreSkipped) {
  PlantedInstance inst = MakePlanted(3, 40, 60, 4);
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream);
  CountingConsumer hungry(100);
  const size_t slot = scheduler.Register(&hungry);
  scheduler.RunRound();
  EXPECT_EQ(scheduler.passes(slot), 1u);
  scheduler.Retire(slot);
  EXPECT_FALSE(scheduler.AnyLive());
  EXPECT_EQ(scheduler.RunRound(), 0u);
  // The retired slot's attribution stays readable.
  EXPECT_EQ(scheduler.passes(slot), 1u);
}

TEST(PassSchedulerTest, ThreadedDispatchIsBitIdenticalToSerial) {
  PlantedInstance inst = MakePlanted(4, 200, 400, 5);
  auto run = [&](uint32_t threads) {
    SetStream stream(&inst.system);
    PassScheduler scheduler(stream, threads);
    // >= 4 consumers with skewed demands so every worker gets a mix of
    // live and finished consumers across rounds (the TSan target).
    std::vector<CountingConsumer> consumers;
    consumers.reserve(6);
    for (uint64_t need : {1, 2, 3, 5, 5, 8}) consumers.emplace_back(need);
    for (CountingConsumer& c : consumers) scheduler.Register(&c);
    scheduler.RunToCompletion();
    std::vector<uint64_t> digests;
    for (CountingConsumer& c : consumers) digests.push_back(c.digest());
    digests.push_back(scheduler.physical_scans());
    return digests;
  };
  EXPECT_EQ(run(1), run(4));
  EXPECT_EQ(run(1), run(7));
}

TEST(PassSchedulerTest, PassEndsRunConcurrentlyOnTheWorkers) {
  // Two pass ends that wait for each other can only both meet if the
  // scheduler runs them at the same time, on two workers. The wait is
  // bounded: a serial pass end fails here instead of hanging.
  PlantedInstance inst = MakePlanted(10, 40, 60, 4);
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream, 2);
  RendezvousConsumer::Meeting meeting;
  meeting.expected = 2;
  RendezvousConsumer first(&meeting), second(&meeting);
  scheduler.Register(&first);
  scheduler.Register(&second);
  EXPECT_EQ(scheduler.RunRound(), 2u);
  EXPECT_TRUE(first.met());
  EXPECT_TRUE(second.met());
  EXPECT_NE(first.thread(), second.thread());
  EXPECT_FALSE(scheduler.AnyLive());
}

TEST(PassSchedulerTest, PassEndRunsInlineWithOneWorkerOrOneConsumer) {
  // threads=1, or a single live consumer at any thread count, runs the
  // pass end on the calling thread.
  PlantedInstance inst = MakePlanted(11, 40, 60, 4);
  for (uint32_t threads : {1u, 4u}) {
    SetStream stream(&inst.system);
    PassScheduler scheduler(stream, threads);
    CountingConsumer solo(1);
    scheduler.Register(&solo);
    EXPECT_EQ(scheduler.RunRound(), 1u);
    EXPECT_EQ(solo.pass_end_thread(), std::this_thread::get_id())
        << "threads=" << threads;
  }
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream, 1);
  CountingConsumer a(1), b(1);
  scheduler.Register(&a);
  scheduler.Register(&b);
  EXPECT_EQ(scheduler.RunRound(), 2u);
  EXPECT_EQ(a.pass_end_thread(), std::this_thread::get_id());
  EXPECT_EQ(b.pass_end_thread(), std::this_thread::get_id());
}

TEST(PassSchedulerTest, PoolHasOneThreadPerLiveConsumerUpToThreads) {
  // The pool a pass end runs on (WorkerPool::Current()) has
  // min(threads, live consumers) threads, however large `threads` is —
  // UINT32_MAX is what a wrapped `--threads -1` would ask for — and
  // grows only when a later round has more live consumers.
  PlantedInstance inst = MakePlanted(12, 40, 60, 4);
  struct PoolProbe final : ScanConsumer {
    explicit PoolProbe(uint64_t passes) : remaining(passes) {}
    void OnSet(const SetView&) override {}
    void OnPassEnd() override {
      --remaining;
      const WorkerPool* pool = WorkerPool::Current();
      seen.push_back(pool == nullptr ? 0 : pool->threads());
    }
    bool done() const override { return remaining == 0; }
    uint64_t remaining;
    std::vector<uint32_t> seen;  ///< pool threads, per pass end
  };
  {
    SetStream stream(&inst.system);
    PassScheduler scheduler(stream, UINT32_MAX);
    PoolProbe solo(1);
    scheduler.DriveToCompletion(solo);
    EXPECT_EQ(solo.seen, std::vector<uint32_t>{1});
    std::vector<PoolProbe> three(3, PoolProbe(1));
    for (PoolProbe& c : three) scheduler.Register(&c);
    scheduler.RunToCompletion();
    for (const PoolProbe& c : three) {
      EXPECT_EQ(c.seen, std::vector<uint32_t>{3});
    }
  }
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream, 4);
  PoolProbe a(3), b(1);
  scheduler.Register(&a);
  scheduler.Register(&b);
  EXPECT_EQ(scheduler.RunRound(), 2u);  // a and b: 2 threads
  std::vector<PoolProbe> late(4, PoolProbe(1));
  for (PoolProbe& c : late) scheduler.Register(&c);
  EXPECT_EQ(scheduler.RunRound(), 5u);  // a and 4 late: capped at 4
  EXPECT_EQ(scheduler.RunRound(), 1u);  // a alone keeps the pool
  EXPECT_EQ(a.seen, (std::vector<uint32_t>{2, 4, 4}));
  EXPECT_EQ(b.seen, std::vector<uint32_t>{2});
  for (const PoolProbe& c : late) EXPECT_EQ(c.seen, std::vector<uint32_t>{4});
}

TEST(PassSchedulerTest, MultiplexedIterMatchesSequentialPerGuessPath) {
  // The determinism contract of the redesign: multiplexing the >= 8
  // guesses onto shared scans produces the byte-identical winning cover
  // and identical logical pass accounting as running each guess on its
  // own dedicated scans — while the repository pays per-guess-max scans
  // instead of the sequential sum.
  PlantedInstance inst = MakePlanted(5);
  IterSetCoverOptions options = SmallIterOptions();

  SetStream multiplexed_stream(&inst.system);
  StreamingResult multiplexed = IterSetCover(multiplexed_stream, options);

  SetStream sequential_stream(&inst.system);
  StreamingResult sequential =
      SequentialPerGuessPath(sequential_stream, options);

  ASSERT_TRUE(multiplexed.success);
  ExpectSameOutcome(multiplexed, sequential);
  EXPECT_EQ(multiplexed.physical_scans, multiplexed.passes);
  EXPECT_EQ(multiplexed_stream.passes(), multiplexed.physical_scans);
  EXPECT_EQ(sequential_stream.passes(), sequential.sequential_scans);
  EXPECT_LT(multiplexed_stream.passes(), sequential_stream.passes());
}

TEST(PassSchedulerTest, FileBackedMultiplexingMatchesAndParsesOncePerRound) {
  // Same contract on a disk-backed repository, plus the re-parse
  // regression: a multi-guess run re-parses the file once per physical
  // scan — not once per guess per pass, the old guesses x passes I/O
  // blow-up. The source's scans() counts the parses.
  PlantedInstance inst = MakePlanted(6);
  const std::string path =
      testing::TempDir() + "/pass_scheduler_file_test.txt";
  ASSERT_TRUE(SaveSetSystemToFile(inst.system, path));
  IterSetCoverOptions options = SmallIterOptions();

  std::string error;
  auto multiplexed_source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(multiplexed_source.has_value()) << error;
  SetStream multiplexed_stream(&*multiplexed_source);
  StreamingResult multiplexed = IterSetCover(multiplexed_stream, options);

  auto sequential_source = FileSetSource::Open(path, &error);
  ASSERT_TRUE(sequential_source.has_value()) << error;
  SetStream sequential_stream(&*sequential_source);
  StreamingResult sequential =
      SequentialPerGuessPath(sequential_stream, options);

  ASSERT_TRUE(multiplexed.success);
  ExpectSameOutcome(multiplexed, sequential);

  // >= 8 guesses on n=300 (k = 1..512), each needing >= 2 passes:
  // the sequential path parses the file per guess per pass, the
  // scheduler once per round.
  EXPECT_EQ(multiplexed_source->scans(), multiplexed.physical_scans);
  EXPECT_EQ(sequential_source->scans(), sequential.sequential_scans);
  EXPECT_GE(sequential_source->scans(), 8 * multiplexed_source->scans());
  std::remove(path.c_str());
}

TEST(PassSchedulerTest, ThreadedIterSetCoverIsBitIdentical) {
  // Full iterSetCover (>= 8 guess consumers) fanned out over 4 workers,
  // scans and pass ends alike: byte-identical to serial, and TSan-clean
  // under the sanitizer job. Inputs: greedy and exact offline solves
  // running concurrently, a partial cover (which reads each
  // sub-instance after its solve), and the early-exit rule.
  PlantedInstance inst = MakePlanted(7);
  ExactSolver exact(20000);
  struct Variant {
    const OfflineSolver* offline;
    double coverage_fraction;
    bool early_exit;
  };
  for (const Variant& variant : {Variant{nullptr, 1.0, false},
                                 Variant{&exact, 1.0, false},
                                 Variant{nullptr, 0.9, false},
                                 Variant{nullptr, 1.0, true}}) {
    IterSetCoverOptions options = SmallIterOptions();
    options.offline = variant.offline;
    options.coverage_fraction = variant.coverage_fraction;
    options.early_exit = variant.early_exit;
    SCOPED_TRACE(::testing::Message()
                 << "exact=" << (variant.offline != nullptr)
                 << " coverage=" << variant.coverage_fraction
                 << " early_exit=" << variant.early_exit);

    SetStream serial_stream(&inst.system);
    PassScheduler serial(serial_stream, 1);
    StreamingResult serial_result = IterSetCover(serial, options);

    SetStream threaded_stream(&inst.system);
    PassScheduler threaded(threaded_stream, 4);
    StreamingResult threaded_result = IterSetCover(threaded, options);

    ASSERT_TRUE(serial_result.success);
    ExpectSameOutcome(threaded_result, serial_result);
    EXPECT_EQ(threaded_result.physical_scans, serial_result.physical_scans);
    EXPECT_EQ(threaded_result.gain_updates, serial_result.gain_updates);
    EXPECT_EQ(threaded_result.sets_touched, serial_result.sets_touched);
    ASSERT_EQ(threaded_result.diagnostics.size(),
              serial_result.diagnostics.size());
    for (size_t i = 0; i < serial_result.diagnostics.size(); ++i) {
      const IterSetCoverIterationDiag& a = threaded_result.diagnostics[i];
      const IterSetCoverIterationDiag& b = serial_result.diagnostics[i];
      EXPECT_EQ(a.offline_picked, b.offline_picked) << "iteration " << i;
      EXPECT_EQ(a.projection_words, b.projection_words) << "iteration " << i;
      EXPECT_EQ(a.uncovered_after, b.uncovered_after) << "iteration " << i;
    }
  }
}

TEST(PassSchedulerTest, CoincidingGuessesRunOnce) {
  // Guesses whose iterations sample the whole residual and can see no
  // heavy set run as one class: the leader scans and solves, and its
  // followers copy its state. Every StreamingResult field, diagnostics
  // included, must equal two uncollapsed references: the same run over
  // a text copy (its set-size bound is n, so nothing collapses) and the
  // one-guess-at-a-time path. The planted input's class is k = 1..8;
  // the uniform one leaves ~22% of U uncoverable, so its class runs all
  // four iterations of delta = 1/4 and sheds members as the residual
  // shrinks. A counting offline solver proves the collapse happened.
  struct Input {
    const char* name;
    SetSystem system;
    double delta;
  };
  PlantedOptions planted;
  planted.num_elements = 600;
  planted.num_sets = 3000;
  planted.cover_size = 12;
  planted.noise_max_size = 30;
  Rng planted_rng(21);
  Rng uniform_rng(22);
  std::vector<Input> inputs;
  inputs.push_back({"planted", GeneratePlanted(planted, planted_rng).system,
                    0.5});
  inputs.push_back(
      {"uniform", GenerateUniformRandom(1000, 500, 0.003, uniform_rng), 0.25});

  struct Variant {
    const char* name;
    bool early_exit = false;
    bool final_sweep = false;
    double coverage_fraction = 1.0;
    double size_test_multiplier = 1.0;
  };
  const Variant variants[] = {{"default"},
                              {"early_exit", true},
                              {"final_sweep", false, true},
                              {"coverage", false, false, 0.9},
                              {"multiplier", false, false, 1.0, 2.0}};

  for (const Input& input : inputs) {
    const std::string stem = testing::TempDir() + "/coinciding_" +
                             std::string(input.name);
    ASSERT_TRUE(SaveSetSystemToFile(input.system, stem + ".txt"));
    std::string error;
    ASSERT_TRUE(WriteBinarySetSystem(input.system, stem + ".bin", &error))
        << error;
    for (const Variant& variant : variants) {
      IterSetCoverOptions options;
      options.delta = input.delta;
      options.sample_constant = 0.5;
      options.seed = 5;
      options.early_exit = variant.early_exit;
      options.final_sweep = variant.final_sweep;
      options.coverage_fraction = variant.coverage_fraction;
      options.size_test_multiplier = variant.size_test_multiplier;
      for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << input.name << " " << variant.name
                     << " threads=" << threads);
        // One run over `source`; returns its Solve call count too.
        auto run = [&](SetSource& source, uint64_t* calls) {
          CountingOfflineSolver counting;
          IterSetCoverOptions counted = options;
          counted.offline = &counting;
          source.set_scan_threads(threads);
          SetStream stream(&source);
          PassScheduler scheduler(stream, threads);
          StreamingResult result = IterSetCover(scheduler, counted);
          *calls = counting.calls();
          return result;
        };
        InMemorySetSource memory(&input.system);
        std::optional<MmapSetSource> mmap =
            MmapSetSource::Open(stem + ".bin", &error);
        ASSERT_TRUE(mmap.has_value()) << error;
        std::optional<FileSetSource> text =
            FileSetSource::Open(stem + ".txt", &error);
        ASSERT_TRUE(text.has_value()) << error;

        uint64_t memory_calls = 0, mmap_calls = 0, text_calls = 0;
        const StreamingResult in_memory = run(memory, &memory_calls);
        const StreamingResult mapped = run(*mmap, &mmap_calls);
        const StreamingResult reference = run(*text, &text_calls);
        ExpectSameRun(in_memory, reference);
        ExpectSameRun(mapped, reference);
        EXPECT_LT(memory_calls, text_calls);
        EXPECT_LT(mmap_calls, text_calls);

        // The retire rule has no one-guess-at-a-time counterpart.
        if (!variant.early_exit) {
          SetStream sequential_stream(&input.system);
          const StreamingResult sequential =
              SequentialPerGuessPath(sequential_stream, options);
          ExpectSameOutcome(in_memory, sequential);
          EXPECT_EQ(in_memory.gain_updates, sequential.gain_updates);
          EXPECT_EQ(in_memory.sets_touched, sequential.sets_touched);
          EXPECT_TRUE(in_memory.diagnostics == sequential.diagnostics);
        }
      }
    }
    std::remove((stem + ".txt").c_str());
    std::remove((stem + ".bin").c_str());
  }
}

TEST(PassSchedulerTest, HeterogeneousConsumersShareScans) {
  // The seam is not iterSetCover-shaped: a DIMV14 recursion and three
  // [ER14]/[CW16] threshold sieves — four unrelated consumers — ride
  // the same physical scans and reproduce their solo results exactly.
  PlantedInstance inst = MakePlanted(8);
  const uint32_t n = inst.system.num_elements();
  const uint32_t m = inst.system.num_sets();
  GreedySolver greedy;
  Dimv14Options dimv_options;
  dimv_options.sample_constant = 0.05;
  dimv_options.seed = 11;

  SetStream stream(&inst.system);
  PassScheduler scheduler(stream, 2);
  Dimv14Consumer dimv(n, m, dimv_options, greedy);
  ThresholdSieveConsumer sieve1(n, 1), sieve2(n, 2), sieve3(n, 3);
  const size_t dimv_slot = scheduler.Register(&dimv);
  const size_t s1 = scheduler.Register(&sieve1);
  const size_t s2 = scheduler.Register(&sieve2);
  const size_t s3 = scheduler.Register(&sieve3);
  scheduler.RunToCompletion();

  EXPECT_EQ(scheduler.physical_scans(), scheduler.max_passes());
  EXPECT_LT(scheduler.physical_scans(), scheduler.total_passes());
  EXPECT_EQ(scheduler.passes(s1), 1u);
  EXPECT_EQ(scheduler.passes(s2), 2u);
  EXPECT_EQ(scheduler.passes(s3), 3u);

  BaselineResult shared_dimv = dimv.TakeResult(scheduler.passes(dimv_slot));
  SetStream solo_stream(&inst.system);
  BaselineResult solo_dimv = Dimv14Cover(solo_stream, dimv_options);
  EXPECT_EQ(shared_dimv.cover.set_ids, solo_dimv.cover.set_ids);
  EXPECT_EQ(shared_dimv.passes, solo_dimv.passes);
  EXPECT_EQ(shared_dimv.space_words, solo_dimv.space_words);

  BaselineResult shared_sieve = sieve2.TakeResult(scheduler.passes(s2));
  SetStream sieve_stream(&inst.system);
  BaselineResult solo_sieve = PolynomialThresholdCover(sieve_stream, 2);
  EXPECT_TRUE(shared_sieve.success);
  EXPECT_EQ(shared_sieve.cover.set_ids, solo_sieve.cover.set_ids);
  EXPECT_EQ(shared_sieve.passes, solo_sieve.passes);
  EXPECT_EQ(shared_sieve.space_words, solo_sieve.space_words);
}

TEST(PassSchedulerTest, SoloDriversIgnoreForeignConsumers) {
  // A driver invoked on a shared scheduler runs rounds only until ITS
  // consumer finishes: a hungrier foreign consumer neither extends the
  // call nor inflates the result's physical-scan attribution.
  PlantedInstance inst = MakePlanted(9);
  SetStream stream(&inst.system);
  PassScheduler scheduler(stream);
  CountingConsumer foreign(50);
  const size_t foreign_slot = scheduler.Register(&foreign);
  BaselineResult shared = PolynomialThresholdCover(scheduler, 2);
  EXPECT_EQ(shared.passes, 2u);
  EXPECT_EQ(shared.physical_scans, 2u);
  EXPECT_EQ(scheduler.physical_scans(), 2u);
  // The foreign consumer rode the sieve's two scans all the same.
  EXPECT_EQ(scheduler.passes(foreign_slot), 2u);

  SetStream solo_stream(&inst.system);
  BaselineResult solo = PolynomialThresholdCover(solo_stream, 2);
  EXPECT_EQ(shared.cover.set_ids, solo.cover.set_ids);
}

TEST(PassSchedulerTest, EarlyExitPreservesWinnerAndSavesScans) {
  // The retire rule kills only guesses that provably cannot win, so the
  // winning cover is identical; pass and scan counts can only shrink.
  for (uint64_t seed : {11, 12, 13, 14}) {
    PlantedInstance inst = MakePlanted(seed + 100);
    IterSetCoverOptions options = SmallIterOptions();
    options.seed = seed;

    SetStream normal_stream(&inst.system);
    StreamingResult normal = IterSetCover(normal_stream, options);

    options.early_exit = true;
    SetStream early_stream(&inst.system);
    StreamingResult early = IterSetCover(early_stream, options);

    ASSERT_TRUE(normal.success);
    ASSERT_TRUE(early.success);
    EXPECT_EQ(early.cover.set_ids, normal.cover.set_ids) << "seed " << seed;
    EXPECT_EQ(early.winning_k, normal.winning_k) << "seed " << seed;
    EXPECT_LE(early.physical_scans, normal.physical_scans);
    EXPECT_LE(early.passes, normal.passes);
    EXPECT_LE(early.sequential_scans, normal.sequential_scans);
  }
}

}  // namespace
}  // namespace streamcover
