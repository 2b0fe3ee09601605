#include "setsystem/stream_generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "util/check.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace streamcover {
namespace {

// Sub-generator for one staged set: content depends only on (seed,
// staged id), never on emission order. The multiplier is the SplitMix64
// increment, decorrelating consecutive ids before Rng's own seeding.
Rng SetRng(uint64_t seed, uint32_t staged_id) {
  return Rng(seed ^ (0x9E3779B97F4A7C15ULL *
                     (static_cast<uint64_t>(staged_id) + 1)));
}

// A worker fills about this many elements per block: enough that a
// block's work dwarfs claiming it, few enough that a stream of a few
// large sets still gives every thread blocks.
constexpr uint64_t kBlockElements = uint64_t{1} << 14;
// Blocks per thread in one wave, so uneven blocks balance within it.
constexpr size_t kWaveBlocksPerThread = 4;

// Consecutive stream positions filled by one worker: each set sorted
// and duplicate-free, back to back.
struct Block {
  std::vector<uint32_t> elements;
  std::vector<size_t> ends;  // end of each set in `elements`
  uint64_t drawn = 0;        // elements before dedup (StreamGenResult::nnz)
};

// Shared emit loop: emits staged sets order[0..m) in stream order, asking
// `fill` to append the content of each. `fill` may run on several
// threads at once; the sink runs on the calling thread only. Waves of
// blocks are filled on a WorkerPool, then handed to the sink in
// order. `max_set_size` bounds what `fill` appends per set; it sizes
// the blocks, which are reserved here on the calling thread, so workers
// grow no buffer that their allocator arenas would keep after the call.
// Returns nullopt if the sink aborts.
template <typename Fill>
std::optional<StreamGenResult> EmitAll(const std::vector<uint32_t>& order,
                                       uint32_t planted_count,
                                       uint32_t max_set_size,
                                       const Fill& fill, const SetSink& sink,
                                       std::string* error) {
  const size_t m = order.size();
  const size_t block_sets = static_cast<size_t>(
      std::max<uint64_t>(1, kBlockElements / std::max(max_set_size, 1u)));
  const size_t blocks = (m + block_sets - 1) / block_sets;
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, std::max<size_t>(blocks, 1));
  WorkerPool pool(static_cast<uint32_t>(threads));
  std::vector<Block> wave(std::min(blocks, threads * kWaveBlocksPerThread));
  for (Block& block : wave) {
    block.elements.reserve(block_sets * max_set_size);
    block.ends.reserve(block_sets);
  }

  StreamGenResult result;
  for (size_t first = 0; first < m; first += wave.size() * block_sets) {
    const size_t wave_blocks =
        std::min(wave.size(), (m - first + block_sets - 1) / block_sets);
    pool.ParallelFor(wave_blocks, [&](size_t b) {
      Block& block = wave[b];
      block.elements.clear();
      block.ends.clear();
      block.drawn = 0;
      const size_t begin = first + b * block_sets;
      const size_t end = std::min(m, begin + block_sets);
      for (size_t pos = begin; pos < end; ++pos) {
        const size_t set_begin = block.elements.size();
        fill(order[pos], block.elements);
        block.drawn += block.elements.size() - set_begin;
        const auto set = block.elements.begin() + set_begin;
        std::sort(set, block.elements.end());
        block.elements.erase(std::unique(set, block.elements.end()),
                             block.elements.end());
        block.ends.push_back(block.elements.size());
      }
    });
    size_t pos = first;
    for (size_t b = 0; b < wave_blocks; ++b) {
      const Block& block = wave[b];
      size_t set_begin = 0;
      for (const size_t set_end : block.ends) {
        if (!sink(std::span<const uint32_t>(block.elements.data() + set_begin,
                                            set_end - set_begin))) {
          if (error != nullptr && error->empty()) {
            *error = "sink aborted at set " + std::to_string(pos);
          }
          return std::nullopt;
        }
        if (order[pos] < planted_count) {
          result.planted_positions.push_back(static_cast<uint32_t>(pos));
        }
        set_begin = set_end;
        ++pos;
      }
      result.nnz += block.drawn;
    }
  }
  result.num_sets = m;
  return result;
}

std::vector<uint32_t> ShuffledIota(uint32_t count, Rng& rng, bool shuffle) {
  std::vector<uint32_t> v(count);
  std::iota(v.begin(), v.end(), 0u);
  if (shuffle) rng.Shuffle(v);
  return v;
}

}  // namespace

std::optional<StreamGenResult> StreamPlanted(const PlantedOptions& options,
                                             uint64_t seed,
                                             const SetSink& sink,
                                             std::string* error) {
  SC_CHECK_GE(options.cover_size, 1u);
  SC_CHECK_GE(options.num_sets, options.cover_size);
  SC_CHECK_GE(options.num_elements, options.cover_size);
  const uint32_t n = options.num_elements;
  const uint32_t k = options.cover_size;

  // O(n + m) state: the blocked universe permutation and stream order.
  Rng master(seed);
  std::vector<uint32_t> perm = ShuffledIota(n, master, true);
  std::vector<uint32_t> order =
      ShuffledIota(options.num_sets, master, options.shuffle_order);

  auto fill = [&](uint32_t sid, std::vector<uint32_t>& out) {
    Rng sub = SetRng(seed, sid);
    if (sid < k) {
      const uint32_t lo =
          static_cast<uint32_t>((static_cast<uint64_t>(sid) * n) / k);
      const uint32_t hi =
          static_cast<uint32_t>((static_cast<uint64_t>(sid + 1) * n) / k);
      out.insert(out.end(), perm.begin() + lo, perm.begin() + hi);
      const uint32_t extra = static_cast<uint32_t>(
          options.planted_overlap * static_cast<double>(hi - lo));
      for (uint32_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<uint32_t>(sub.Uniform(n)));
      }
    } else {
      uint32_t size = static_cast<uint32_t>(sub.UniformInt(
          options.noise_min_size,
          std::max(options.noise_min_size, options.noise_max_size)));
      size = std::min(size, n);
      sub.SampleWithoutReplacementInto(n, size, out);
    }
  };
  // Block sets span at most ceil(n/k) elements plus their overlap.
  const uint32_t widest_block = (n - 1) / k + 1;
  const uint32_t max_set_size = std::max(
      widest_block + static_cast<uint32_t>(options.planted_overlap *
                                           static_cast<double>(widest_block)),
      std::min(n, std::max(options.noise_min_size, options.noise_max_size)));
  return EmitAll(order, k, max_set_size, fill, sink, error);
}

std::optional<StreamGenResult> StreamSparse(uint32_t num_elements,
                                            uint32_t num_sets,
                                            uint32_t max_set_size,
                                            uint64_t seed,
                                            const SetSink& sink,
                                            std::string* error) {
  SC_CHECK_GE(max_set_size, 1u);
  const uint32_t n = num_elements;
  const uint32_t blocks =
      static_cast<uint32_t>((n + max_set_size - 1) / max_set_size);
  SC_CHECK_GE(num_sets, blocks);

  Rng master(seed);
  std::vector<uint32_t> perm = ShuffledIota(n, master, true);
  std::vector<uint32_t> order = ShuffledIota(num_sets, master, true);

  auto fill = [&](uint32_t sid, std::vector<uint32_t>& out) {
    if (sid < blocks) {
      const uint32_t lo = sid * max_set_size;
      const uint32_t hi = std::min(n, lo + max_set_size);
      out.insert(out.end(), perm.begin() + lo, perm.begin() + hi);
    } else {
      Rng sub = SetRng(seed, sid);
      const uint32_t size =
          static_cast<uint32_t>(sub.UniformInt(1, max_set_size));
      sub.SampleWithoutReplacementInto(n, std::min(size, n), out);
    }
  };
  return EmitAll(order, blocks, std::min(n, max_set_size), fill, sink,
                 error);
}

std::optional<StreamGenResult> StreamZipf(uint32_t num_elements,
                                          uint32_t num_sets, double alpha,
                                          uint32_t max_set_size,
                                          uint64_t seed, const SetSink& sink,
                                          std::string* error) {
  SC_CHECK_GE(max_set_size, 1u);
  const uint32_t n = num_elements;
  const uint32_t blocks =
      static_cast<uint32_t>((n + max_set_size - 1) / max_set_size);
  SC_CHECK_GE(num_sets, blocks);

  Rng master(seed);
  // Popularity weights ~ rank^{-alpha} over a random ranking, same as
  // the in-memory generator.
  std::vector<uint32_t> rank = ShuffledIota(n, master, true);
  std::vector<double> cumulative(n);
  double total = 0;
  for (uint32_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -alpha);
    cumulative[i] = total;
  }
  std::vector<uint32_t> perm = ShuffledIota(n, master, true);
  std::vector<uint32_t> order = ShuffledIota(num_sets, master, true);

  auto draw_element = [&](Rng& sub) -> uint32_t {
    const double x = sub.UniformDouble() * total;
    auto it = std::lower_bound(cumulative.begin(), cumulative.end(), x);
    size_t idx = static_cast<size_t>(it - cumulative.begin());
    if (idx >= n) idx = n - 1;
    return rank[idx];
  };
  auto fill = [&](uint32_t sid, std::vector<uint32_t>& out) {
    if (sid < blocks) {
      const uint32_t lo = sid * max_set_size;
      const uint32_t hi = std::min(n, lo + max_set_size);
      out.insert(out.end(), perm.begin() + lo, perm.begin() + hi);
    } else {
      Rng sub = SetRng(seed, sid);
      const double u = sub.UniformDouble();
      uint32_t size = static_cast<uint32_t>(std::max(
          1.0, static_cast<double>(max_set_size) * std::pow(u, alpha)));
      size = std::min(size, max_set_size);
      for (uint32_t i = 0; i < size; ++i) out.push_back(draw_element(sub));
    }
  };
  return EmitAll(order, blocks, max_set_size, fill, sink, error);
}

}  // namespace streamcover
