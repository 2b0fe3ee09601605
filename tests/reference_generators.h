// Reference stream generators: the serial generator-to-sink loop and
// the hash-set Floyd sampler that setsystem/stream_generators.cc and
// Rng::SampleWithoutReplacementInto replaced. Every instance file made
// before the block-parallel fill came from this code, so
// stream_generators_test checks the production generators against it —
// set by set, after normalization — and util's Floyd against
// SampleWithoutReplacementInto draw for draw.
//
// The draws are the production ones: the same sub-generator per staged
// id, the same Uniform calls in the same order. Only the loop (one
// thread, the sink sees each set unsorted the moment it is drawn) and
// the sampler's membership structure (std::unordered_set) differ.

#ifndef STREAMCOVER_TESTS_REFERENCE_GENERATORS_H_
#define STREAMCOVER_TESTS_REFERENCE_GENERATORS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "setsystem/generators.h"
#include "setsystem/stream_generators.h"
#include "util/check.h"
#include "util/rng.h"

namespace streamcover::reference {

/// Robert Floyd's algorithm over a hash set: the draws and output order
/// Rng::SampleWithoutReplacementInto must reproduce.
inline void SampleWithoutReplacementInto(Rng& rng, uint32_t n, uint32_t k,
                                         std::vector<uint32_t>& out) {
  SC_CHECK_LE(k, n);
  std::unordered_set<uint32_t> chosen;
  chosen.reserve(k * 2);
  for (uint32_t j = n - k; j < n; ++j) {
    uint32_t t = static_cast<uint32_t>(rng.Uniform(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
}

inline Rng SetRng(uint64_t seed, uint32_t staged_id) {
  return Rng(seed ^ (0x9E3779B97F4A7C15ULL *
                     (static_cast<uint64_t>(staged_id) + 1)));
}

/// The serial loop: fills and emits one set at a time, in stream order.
template <typename Fill>
std::optional<StreamGenResult> EmitAll(const std::vector<uint32_t>& order,
                                       uint32_t planted_count, Fill&& fill,
                                       const SetSink& sink,
                                       std::string* error) {
  StreamGenResult result;
  std::vector<uint32_t> scratch;
  for (uint32_t pos = 0; pos < order.size(); ++pos) {
    const uint32_t staged_id = order[pos];
    scratch.clear();
    fill(staged_id, scratch);
    if (!sink(std::span<const uint32_t>(scratch))) {
      if (error != nullptr && error->empty()) {
        *error = "sink aborted at set " + std::to_string(pos);
      }
      return std::nullopt;
    }
    ++result.num_sets;
    result.nnz += scratch.size();
    if (staged_id < planted_count) {
      result.planted_positions.push_back(pos);
    }
  }
  std::sort(result.planted_positions.begin(),
            result.planted_positions.end());
  return result;
}

inline std::vector<uint32_t> ShuffledIota(uint32_t count, Rng& rng,
                                          bool shuffle) {
  std::vector<uint32_t> v(count);
  std::iota(v.begin(), v.end(), 0u);
  if (shuffle) rng.Shuffle(v);
  return v;
}

inline std::optional<StreamGenResult> StreamPlanted(
    const PlantedOptions& options, uint64_t seed, const SetSink& sink,
    std::string* error) {
  const uint32_t n = options.num_elements;
  const uint32_t k = options.cover_size;
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
      out.assign(perm.begin() + lo, perm.begin() + hi);
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
      SampleWithoutReplacementInto(sub, n, size, out);
    }
  };
  return EmitAll(order, k, fill, sink, error);
}

inline std::optional<StreamGenResult> StreamSparse(
    uint32_t num_elements, uint32_t num_sets, uint32_t max_set_size,
    uint64_t seed, const SetSink& sink, std::string* error) {
  const uint32_t n = num_elements;
  const uint32_t blocks =
      static_cast<uint32_t>((n + max_set_size - 1) / max_set_size);
  Rng master(seed);
  std::vector<uint32_t> perm = ShuffledIota(n, master, true);
  std::vector<uint32_t> order = ShuffledIota(num_sets, master, true);
  auto fill = [&](uint32_t sid, std::vector<uint32_t>& out) {
    if (sid < blocks) {
      const uint32_t lo = sid * max_set_size;
      const uint32_t hi = std::min(n, lo + max_set_size);
      out.assign(perm.begin() + lo, perm.begin() + hi);
    } else {
      Rng sub = SetRng(seed, sid);
      const uint32_t size =
          static_cast<uint32_t>(sub.UniformInt(1, max_set_size));
      SampleWithoutReplacementInto(sub, n, std::min(size, n), out);
    }
  };
  return EmitAll(order, blocks, fill, sink, error);
}

inline std::optional<StreamGenResult> StreamZipf(
    uint32_t num_elements, uint32_t num_sets, double alpha,
    uint32_t max_set_size, uint64_t seed, const SetSink& sink,
    std::string* error) {
  const uint32_t n = num_elements;
  const uint32_t blocks =
      static_cast<uint32_t>((n + max_set_size - 1) / max_set_size);
  Rng master(seed);
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
      out.assign(perm.begin() + lo, perm.begin() + hi);
    } else {
      Rng sub = SetRng(seed, sid);
      const double u = sub.UniformDouble();
      uint32_t size = static_cast<uint32_t>(std::max(
          1.0, static_cast<double>(max_set_size) * std::pow(u, alpha)));
      size = std::min(size, max_set_size);
      for (uint32_t i = 0; i < size; ++i) out.push_back(draw_element(sub));
    }
  };
  return EmitAll(order, blocks, fill, sink, error);
}

}  // namespace streamcover::reference

#endif  // STREAMCOVER_TESTS_REFERENCE_GENERATORS_H_
