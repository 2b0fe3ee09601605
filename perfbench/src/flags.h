// Command-line flags of the benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Every flag takes exactly one value; unknown, repeated or malformed
// flags are rejected rather than defaulted.

#ifndef PERFBENCH_FLAGS_H_
#define PERFBENCH_FLAGS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's workloads, in declaration order.
inline constexpr const char* kWorkloads[] = {"iter_disk", "sieve_disk",
                                             "serve_mix"};

/// Longest run the driver accepts.
inline constexpr uint32_t kMaxSeconds = 600;

struct BenchFlags {
  std::string workload;
  uint64_t seed = 0;
  uint32_t seconds = 0;
  bool trace = false;
  /// Where instance files, the report and the trace file go.
  std::string out_dir = ".bench_build/perfbench-out";
};

/// Parses argv[1..]. Returns std::nullopt with *error on any bad flag.
/// --workload, --seed, --seconds and --trace are required.
std::optional<BenchFlags> ParseFlags(std::span<const std::string> args,
                                     std::string* error);

std::string Usage();

}  // namespace perfbench

#endif  // PERFBENCH_FLAGS_H_
