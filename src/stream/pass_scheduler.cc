#include "stream/pass_scheduler.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/check.h"

namespace streamcover {
namespace {

// Runs body(w) for every w in [0, workers): worker 0 on the calling
// thread, the others on threads started here and joined before return
// (std::jthread joins on destruction, also if body(0) throws). The one
// place the scheduler starts threads; workers == 1 starts none.
template <typename Body>
void RunOnWorkers(uint32_t workers, const Body& body) {
  std::vector<std::jthread> pool;
  pool.reserve(workers - 1);
  for (uint32_t w = 1; w < workers; ++w) {
    pool.emplace_back([&body, w] { body(w); });
  }
  body(0);
}

}  // namespace

PassScheduler::PassScheduler(SetStream& stream, uint32_t threads,
                             KernelPolicy)
    : stream_(&stream), threads_(std::max(threads, 1u)) {}

size_t PassScheduler::Register(ScanConsumer* consumer) {
  SC_CHECK(consumer != nullptr);
  slots_.push_back(Slot{consumer, 0});
  return slots_.size() - 1;
}

void PassScheduler::Retire(size_t slot) {
  SC_CHECK_LT(slot, slots_.size());
  slots_[slot].consumer = nullptr;
}

bool PassScheduler::AnyLive() const {
  for (const Slot& slot : slots_) {
    if (slot.consumer != nullptr && !slot.consumer->done()) return true;
  }
  return false;
}

uint64_t PassScheduler::passes(size_t slot) const {
  SC_CHECK_LT(slot, slots_.size());
  return slots_[slot].passes;
}

uint64_t PassScheduler::max_passes() const {
  uint64_t max = 0;
  for (const Slot& slot : slots_) max = std::max(max, slot.passes);
  return max;
}

uint64_t PassScheduler::total_passes() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.passes;
  return total;
}

void PassScheduler::DispatchBatch(std::span<const SetView> views,
                                  const std::vector<ScanConsumer*>& live,
                                  uint32_t workers) {
  // Static partition: worker w serves consumers w, w+workers, ... Each
  // consumer is touched by exactly one worker and receives the whole
  // batch in stream order, so no locks and no dispatch-order
  // nondeterminism. The walk is set-major — every owned consumer sees a
  // set while its elements are still in cache — which is also the order
  // a single inline worker uses.
  RunOnWorkers(workers, [&](uint32_t worker) {
    for (const SetView& set : views) {
      for (size_t c = worker; c < live.size(); c += workers) {
        live[c]->OnSet(set);
      }
    }
  });
}

void PassScheduler::RunPassEnds(const std::vector<ScanConsumer*>& live,
                                uint32_t workers) {
  // Dynamic claiming: pass-end costs are very uneven (an iterSetCover
  // guess's offline solve shrinks as k grows), so each worker takes the
  // next unclaimed consumer instead of a fixed share. Every OnPassEnd
  // runs exactly once, on one thread; the join orders it before
  // anything the calling thread does next.
  std::atomic<size_t> next{0};
  RunOnWorkers(workers, [&](uint32_t) {
    for (size_t c = next++; c < live.size(); c = next++) {
      live[c]->OnPassEnd();
    }
  });
}

size_t PassScheduler::RunRound() {
  std::vector<ScanConsumer*> live;
  std::vector<Slot*> live_slots;
  live.reserve(slots_.size());
  for (Slot& slot : slots_) {
    if (slot.consumer != nullptr && !slot.consumer->done()) {
      live.push_back(slot.consumer);
      live_slots.push_back(&slot);
    }
  }
  if (live.empty()) return 0;
  if (stream_failed_) return 0;  // sticky: the repository is gone

  ++physical_scans_;
  const uint32_t workers = static_cast<uint32_t>(
      std::min<size_t>(threads_, live.size()));
  const bool scan_ok = stream_->ForEachBatch(
      [&](std::span<const SetView> views) {
        DispatchBatch(views, live, workers);
      });
  if (!scan_ok) {
    // The round died mid-scan: no pass attribution, no OnPassEnd — the
    // consumers saw at most the batches before the failing one, not a
    // pass. Drivers observe the 0 return (and stream().error()) and
    // unwind.
    stream_failed_ = true;
    return 0;
  }
  for (Slot* slot : live_slots) ++slot->passes;
  RunPassEnds(live, workers);
  return live.size();
}

uint64_t PassScheduler::RunToCompletion() {
  const uint64_t before = physical_scans_;
  while (RunRound() > 0) {
  }
  return physical_scans_ - before;
}

PassScheduler::SoloRun PassScheduler::DriveToCompletion(
    ScanConsumer& consumer) {
  const uint64_t physical_before = physical_scans_;
  const size_t slot = Register(&consumer);
  // RunRound() == 0 with the consumer not done means the stream failed;
  // looping further would spin forever on a dead repository.
  while (!consumer.done() && RunRound() > 0) {
  }
  SoloRun run;
  run.logical_passes = passes(slot);
  run.physical_scans = physical_scans_ - physical_before;
  Retire(slot);
  return run;
}

}  // namespace streamcover
