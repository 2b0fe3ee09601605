// WorkloadRegistry — named instance factories, mirroring SolverRegistry.
//
// The paper's experiments are grids of solver × instance × parameter
// runs. SolverRegistry names the first axis; this registry names the
// second: planted families, adversarial/lower-bound constructions,
// geometric families (disks / rects / fat triangles / the Figure 1.2
// pathology), and file-backed repositories all register as factories
// from one WorkloadParams struct to an Instance. RunPlan
// (core/run_plan.h) crosses the two registries into sweeps; the CLI's
// `list-workloads` and `sweep` commands expose them directly.
//
// Unknown names fail cleanly: MakeWorkload returns std::nullopt with a
// diagnostic naming the alternatives. So do params outside a
// generator's preconditions: the factory names the violated bound
// instead of reaching the generator's SC_CHECK. WorkloadParamsFit is
// that check on its own, for callers that drive a generator directly
// (the CLI's generate-disk streams to a file).

#ifndef STREAMCOVER_CORE_WORKLOAD_REGISTRY_H_
#define STREAMCOVER_CORE_WORKLOAD_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.h"

namespace streamcover {

/// One parameter struct drives every factory; each workload reads the
/// subset it understands and ignores the rest (same convention as
/// RunOptions on the solver axis).
struct WorkloadParams {
  uint32_t n = 1000;           ///< |U| (points for geometric workloads)
  uint32_t m = 2000;           ///< |F| (shapes for geometric workloads)
  uint32_t k = 10;             ///< planted cover size / block count
  uint32_t max_set_size = 32;  ///< sparse / zipf set-size cap
  double alpha = 1.1;          ///< zipf exponent
  uint32_t levels = 6;         ///< greedy-adversarial halving levels
  uint64_t seed = 1;           ///< generator seed
  std::string path;            ///< repository path for the file workload

  /// Human-readable "n=...,m=...,seed=..." string for provenance lines
  /// and report JSON.
  std::string Describe() const;
};

/// Name-keyed workload directory. Thread-compatible like SolverRegistry:
/// registration at startup, concurrent lookups afterwards.
class WorkloadRegistry {
 public:
  /// Coarse classification, used by drivers to select sweep subsets.
  enum class Kind {
    kAbstract,   ///< plain SetSystem instances
    kGeometric,  ///< carries a points/shapes payload
    kFile,       ///< streams an on-disk repository
  };

  using Factory = std::function<std::optional<Instance>(
      const WorkloadParams&, std::string* error)>;

  struct Entry {
    std::string name;
    std::string description;  ///< one line: family + what it stresses
    Kind kind = Kind::kAbstract;
    Factory make;
  };

  /// The process-wide registry with every built-in workload
  /// pre-registered on first use.
  static WorkloadRegistry& Global();

  /// Registers a workload. Returns false (registry unchanged) if the
  /// name is taken or the entry has no factory.
  bool Register(Entry entry);

  /// Entry for `name`, or nullptr.
  const Entry* Find(std::string_view name) const;

  bool Contains(std::string_view name) const { return Find(name) != nullptr; }

  /// All registered names, sorted ascending.
  std::vector<std::string> Names() const;

  /// All entries, sorted by name.
  std::vector<const Entry*> Entries() const;

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Checks `params` against the preconditions of the generator behind
/// the built-in workload `name`; every built-in factory calls it before
/// it generates. Returns false with a message naming the first violated
/// bound in *error. A name with no preconditions always fits.
bool WorkloadParamsFit(std::string_view name, const WorkloadParams& params,
                       std::string* error = nullptr);

/// Builds the named workload from the global registry. Unknown names and
/// factory failures (bad params, missing file) return std::nullopt with
/// a diagnostic in *error.
std::optional<Instance> MakeWorkload(std::string_view name,
                                     const WorkloadParams& params,
                                     std::string* error = nullptr);

}  // namespace streamcover

#endif  // STREAMCOVER_CORE_WORKLOAD_REGISTRY_H_
