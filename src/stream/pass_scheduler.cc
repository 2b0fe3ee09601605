#include "stream/pass_scheduler.h"

#include <algorithm>

#include "util/check.h"

namespace streamcover {

// The KernelPolicy parameter is kept only because perfbench/ compiles
// against it (ROADMAP item 3).
PassScheduler::PassScheduler(SetStream& stream, uint32_t threads,
                             KernelPolicy)
    : stream_(&stream), threads_(std::max(threads, 1u)) {
  pool_.emplace(1);  // inline until a round has consumers to share
}

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
                                  const std::vector<ScanConsumer*>& live) {
  // One index per consumer, claimed dynamically and in registration
  // order: guess costs are very uneven (k = 1 stores every set, k = 4096
  // almost none), and iterSetCover registers its heaviest guess first,
  // so it starts first. A consumer is touched by one thread per batch
  // and sees the batch in stream order, so no locks and no
  // dispatch-order nondeterminism.
  pool_->ParallelFor(live.size(), [&](size_t c) {
    for (const SetView& set : views) live[c]->OnSet(set);
  });
}

void PassScheduler::RunPassEnds(const std::vector<ScanConsumer*>& live) {
  // Pass-end costs are uneven too (an iterSetCover guess's offline
  // solve shrinks as k grows). Every OnPassEnd runs exactly once, on
  // one thread, and ParallelFor's return orders it before anything the
  // calling thread does next.
  pool_->ParallelFor(live.size(), [&](size_t c) { live[c]->OnPassEnd(); });
}

const ScanFilter* PassScheduler::UnionFilter(
    const std::vector<ScanConsumer*>& live) {
  union_filter_ = ScanFilter{UINT32_MAX, nullptr};
  for (ScanConsumer* consumer : live) {
    const ScanFilter wants = consumer->needs();
    if (wants.min_size == 0) return nullptr;  // every set: no filter
    union_filter_.min_size = std::min(union_filter_.min_size, wants.min_size);
    if (wants.ids == nullptr) continue;
    if (union_filter_.ids == nullptr) {
      union_ids_ = *wants.ids;
      union_filter_.ids = &union_ids_;
    } else {
      union_ids_ |= *wants.ids;
    }
  }
  return &union_filter_;
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

  // One thread per live consumer, up to `threads`: the pool starts on
  // the first round with two live consumers and is rebuilt only when a
  // later round has more live consumers than it has threads. Between
  // rounds no loop is running, so replacing it joins idle workers only.
  const auto want =
      static_cast<uint32_t>(std::min<size_t>(threads_, live.size()));
  if (want > pool_->threads()) {
    pool_.reset();
    pool_.emplace(want);
  }

  ++physical_scans_;
  const bool scan_ok = stream_->ForEachBatch(
      [&](std::span<const SetView> views) {
        if (!views.empty()) DispatchBatch(views, live);
      },
      UnionFilter(live));
  if (!scan_ok) {
    // The round died mid-scan: no pass attribution, no OnPassEnd — the
    // consumers saw at most the batches before the failing one, not a
    // pass. Drivers observe the 0 return (and stream().error()) and
    // unwind.
    stream_failed_ = true;
    return 0;
  }
  for (Slot* slot : live_slots) ++slot->passes;
  RunPassEnds(live);
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
