// Generator-to-sink workload streaming.
//
// The in-memory generators (setsystem/generators.h) stage every set
// before building the CSR, so a paper-scale instance (m ≈ 10^7–10^8,
// multi-GB nnz) would have to fit in RAM just to be written out. The
// streaming variants here emit each set to a caller-provided sink
// within one wave of its generation and keep only O(n + m) state (the
// universe permutation and the stream-order permutation) plus that
// wave (about 256 KiB per thread, see below) — piping one into
// BinarySetWriter produces an out-of-core instance file without ever
// materializing the instance.
//
// Determinism: each family is a pure function of its parameters and
// seed. Every set's content is drawn from a sub-generator keyed by
// (seed, staged id), so the content of set i does not depend on the
// emission order or on how many sets preceded it. The draw sequences
// deliberately differ from the in-memory generators' shared-stream
// draws — the two families produce different (equally distributed)
// instances for the same seed.
//
// Parallel fill: that independence lets the generators fill sets on
// several threads without changing a byte of output. Stream positions
// are cut into blocks of about 2^14 elements; workers of one
// WorkerPool fill a wave of blocks (each set sorted and deduplicated
// in its worker), then the calling thread hands the wave's sets to the
// sink in stream order and the next wave starts. The pool has
// min(std::thread::hardware_concurrency(), block count) threads — one,
// running every block inline, when the stream is shorter than a block
// — and its threads end before the call returns. So the sink is only
// ever called on the caller's thread, one set at a time, in stream
// order, and needs no locking.

#ifndef STREAMCOVER_SETSYSTEM_STREAM_GENERATORS_H_
#define STREAMCOVER_SETSYSTEM_STREAM_GENERATORS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "setsystem/generators.h"

namespace streamcover {

/// Receives one generated set per call, on the generator's calling
/// thread, in stream order. The generators below hand over every set
/// sorted and duplicate-free; other producers need not, so sinks still
/// normalize (as SetSystem::Builder::AddSet and BinarySetWriter::AddSet
/// do; the writer skips that work for a strictly increasing set).
/// Return false to abort generation — e.g. on a disk write failure.
using SetSink = std::function<bool(std::span<const uint32_t>)>;

/// What the generator knows after streaming all sets.
struct StreamGenResult {
  uint64_t num_sets = 0;
  /// Elements drawn, counted before each set's duplicates are dropped —
  /// an upper bound on the written nnz; sinks report the exact count
  /// themselves.
  uint64_t nnz = 0;
  /// Stream positions of the planted cover, ascending.
  std::vector<uint32_t> planted_positions;
};

/// Streaming twin of GeneratePlanted: same block structure, overlap and
/// noise distribution, emitted set by set. Returns std::nullopt (and
/// *error from the caller's context) only if the sink returned false.
std::optional<StreamGenResult> StreamPlanted(const PlantedOptions& options,
                                             uint64_t seed,
                                             const SetSink& sink,
                                             std::string* error);

/// Streaming twin of GenerateSparse.
std::optional<StreamGenResult> StreamSparse(uint32_t num_elements,
                                            uint32_t num_sets,
                                            uint32_t max_set_size,
                                            uint64_t seed,
                                            const SetSink& sink,
                                            std::string* error);

/// Streaming twin of GenerateZipf.
std::optional<StreamGenResult> StreamZipf(uint32_t num_elements,
                                          uint32_t num_sets, double alpha,
                                          uint32_t max_set_size,
                                          uint64_t seed, const SetSink& sink,
                                          std::string* error);

}  // namespace streamcover

#endif  // STREAMCOVER_SETSYSTEM_STREAM_GENERATORS_H_
