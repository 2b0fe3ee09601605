#include "stream/pipelined_scan.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>

#include "util/check.h"

namespace streamcover {
namespace {

/// Ring slots per decode thread: while one chunk decodes, the one before
/// it can sit decoded and waiting, so a worker never idles for lack of
/// a free slot. Bounds decoded-but-undelivered memory to ~2 chunks of
/// element storage per thread.
constexpr uint32_t kSlotsPerDecodeThread = 2;

/// madvise(MADV_WILLNEED) window, in chunks ahead of the claim frontier.
constexpr uint64_t kReadaheadChunks = 8;

// The varint fast path reads little-endian bytes from one native load.
static_assert(std::endian::native == std::endian::little);

}  // namespace

PipelinedScanner::PipelinedScanner(const uint8_t* data,
                                   uint64_t num_elements,
                                   const binfmt::BinaryLayout& layout,
                                   std::span<const binfmt::ScanChunk> chunks,
                                   uint32_t decode_threads)
    : data_(data),
      num_elements_(num_elements),
      layout_(&layout),
      chunks_(chunks),
      decode_threads_(decode_threads),
      depth_(kSlotsPerDecodeThread * decode_threads) {
  SC_CHECK(decode_threads_ >= 1);
}

void PipelinedScanner::Readahead(uint64_t claimed) {
  const uint64_t want =
      std::min<uint64_t>(chunks_.size(), claimed + 1 + kReadaheadChunks);
  uint64_t from = 0;
  {
    // advise_frontier_ rides the claim lock's cadence: the caller just
    // claimed under mu_, so re-taking it here is one uncontended
    // round-trip per chunk, not per page.
    std::lock_guard<std::mutex> lock(mu_);
    if (advise_frontier_ >= want) return;
    from = advise_frontier_;
    advise_frontier_ = want;
  }
  // The syscall runs outside the lock; the window [from, want) is
  // exclusively ours by the frontier exchange above.
  constexpr uint64_t kPage = 4096;
  const uint64_t begin = chunks_[from].byte_begin & ~(kPage - 1);
  const uint64_t end = chunks_[want - 1].byte_end;
  ::madvise(const_cast<uint8_t*>(data_ + begin), end - begin,
            MADV_WILLNEED);
}

bool PipelinedScanner::DecodeChunk(const binfmt::ScanChunk& chunk,
                                   SetBatch& batch, const std::string& path,
                                   const CancelToken* cancel,
                                   std::string* error) {
  auto fail = [&](uint32_t set_id, const std::string& msg) {
    *error =
        path + ": corrupt set " + std::to_string(set_id) + ": " + msg;
    return false;
  };
  batch.Reset(chunk.first_set);
  batch.offsets.reserve(chunk.set_count + 1);
  const uint8_t* cursor = data_ + chunk.byte_begin;
  for (uint32_t i = 0; i < chunk.set_count; ++i) {
    const uint32_t s = chunk.first_set + i;
    if (i % kCancelStride == 0) {
      if (cancel != nullptr && cancel->cancelled()) {
        *error = kDeadlineExceededError;
        return false;
      }
      if (abort_) {  // racy read is fine: abort only accelerates exit
        *error = kDeadlineExceededError;
        return false;
      }
    }
    // Offsets were validated monotone at Open, so every
    // [cursor, set_end) is an in-bounds window; only varint contents
    // still need checking.
    const uint8_t* set_end = data_ + layout_->SetOffset(s + 1);
    // The footer bound caps every size (SetSource::max_set_size), so
    // the batch grows once per set by at most that much.
    auto size = binfmt::DecodeVarint(&cursor, set_end);
    if (!size.has_value() || *size > layout_->max_set_size) {
      return fail(s, "bad size varint");
    }
    const size_t base = batch.elems.size();
    batch.elems.resize(base + *size);
    uint32_t* out = batch.elems.data() + base;
    uint64_t prev = 0;
    for (uint64_t j = 0; j < *size; ++j) {
      // A varint of at most 3 bytes that ends inside the slot comes
      // from one 8-byte load, which stays in the file: at least 16
      // bytes follow every body byte, even at the last set's end.
      // Every other varint takes DecodeVarint and its diagnostics.
      uint64_t w = 0;
      std::memcpy(&w, cursor, sizeof(w));
      const int stop_bit = std::countr_zero(~w & 0x8080808080808080ULL);
      const size_t len = static_cast<size_t>(stop_bit + 1) / 8;
      uint64_t delta = 0;
      if (len <= 3 && len <= static_cast<size_t>(set_end - cursor)) {
        const uint64_t bytes = w & ((uint64_t{2} << stop_bit) - 1);
        delta = (bytes & 0x7f) | ((bytes >> 1) & 0x3f80) |
                ((bytes >> 2) & 0x1fc000);
        cursor += len;
      } else {
        auto slow = binfmt::DecodeVarint(&cursor, set_end);
        if (!slow.has_value()) return fail(s, "truncated body");
        // Only a long varint can hold a delta near 2^64, which would
        // wrap prev + delta + 1 to a small id: no delta >= n is valid.
        if (*slow >= num_elements_) {
          return fail(s, "element id out of range");
        }
        delta = *slow;
      }
      // Delta-1 coding off a strictly increasing sequence: decoding
      // reproduces the sorted-unique invariant by construction.
      const uint64_t e = (j == 0) ? delta : prev + delta + 1;
      if (e >= num_elements_) return fail(s, "element id out of range");
      out[j] = static_cast<uint32_t>(e);
      prev = e;
    }
    if (cursor != set_end) return fail(s, "trailing bytes");
    batch.EndSet();
  }
  batch.MakeViews();
  return true;
}

bool PipelinedScanner::Run(const std::string& path,
                           const SetBatchVisitor& visit,
                           const CancelToken* cancel, std::string* error) {
  if (chunks_.empty()) return true;
  // Fresh per-run state (Run may be called repeatedly); slot batches
  // keep their capacity across runs, so steady-state multi-pass solvers
  // decode allocation-free.
  slots_.resize(depth_);
  advise_frontier_ = 0;
  abort_ = false;
  if (decode_threads_ > 1) return RunPool(path, visit, cancel, error);
  SetBatch& batch = slots_[0].batch;
  for (uint64_t c = 0; c < chunks_.size(); ++c) {
    Readahead(c);
    if (!DecodeChunk(chunks_[c], batch, path, cancel, error)) return false;
    visit(batch.views);
  }
  return true;
}

bool PipelinedScanner::RunPool(const std::string& path,
                               const SetBatchVisitor& visit,
                               const CancelToken* cancel,
                               std::string* error) {
  const uint64_t num_chunks = chunks_.size();
  for (Slot& slot : slots_) {
    slot.state = Slot::State::kEmpty;
    slot.chunk = 0;
    slot.error.clear();
  }
  next_claim_ = 0;
  next_consume_ = 0;

  auto worker = [&] {
    for (;;) {
      uint64_t c = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        claim_cv_.wait(lock, [&] {
          return abort_ || next_claim_ >= num_chunks ||
                 next_claim_ < next_consume_ + depth_;
        });
        if (abort_ || next_claim_ >= num_chunks) return;
        c = next_claim_++;
        Slot& slot = slots_[c % depth_];
        // Modular slot assignment + in-order consumption guarantee the
        // slot is free: chunk c is claimable only once chunk c - depth
        // was consumed.
        SC_CHECK(slot.state == Slot::State::kEmpty);
        slot.state = Slot::State::kDecoding;
        slot.chunk = c;
      }
      Readahead(c);
      Slot& slot = slots_[c % depth_];
      std::string decode_error;
      const bool ok =
          DecodeChunk(chunks_[c], slot.batch, path, cancel, &decode_error);
      {
        std::lock_guard<std::mutex> lock(mu_);
        slot.state = ok ? Slot::State::kReady : Slot::State::kFailed;
        slot.error = ok ? std::string() : decode_error;
      }
      consume_cv_.notify_all();
    }
  };

  const uint32_t pool_size = static_cast<uint32_t>(
      std::min<uint64_t>(decode_threads_, num_chunks));
  std::vector<std::thread> pool;
  pool.reserve(pool_size);
  for (uint32_t w = 0; w < pool_size; ++w) pool.emplace_back(worker);

  bool ok = true;
  for (uint64_t c = 0; c < num_chunks; ++c) {
    Slot& slot = slots_[c % depth_];
    {
      std::unique_lock<std::mutex> lock(mu_);
      consume_cv_.wait(lock, [&] {
        return slot.chunk == c && (slot.state == Slot::State::kReady ||
                                   slot.state == Slot::State::kFailed);
      });
      if (slot.state == Slot::State::kFailed) {
        // First failed chunk in set-id order — its recorded error names
        // the first corrupt set in stream order, as an inline run would.
        *error = slot.error;
        ok = false;
        abort_ = true;
      }
    }
    if (!ok) break;
    // Dispatch outside the lock: decode of later chunks proceeds while
    // the consumer works through this one. The slot stays kReady (so no
    // worker reuses it) until we mark it consumed below.
    visit(slot.batch.views);
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot.state = Slot::State::kEmpty;
      ++next_consume_;
    }
    claim_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    abort_ = abort_ || !ok;
    // Completed runs also pass here with next_claim_ == num_chunks, so
    // waiting workers fall through and exit either way.
  }
  claim_cv_.notify_all();
  for (std::thread& t : pool) t.join();
  return ok;
}

}  // namespace streamcover
