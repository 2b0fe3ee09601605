// Instance — the workload half of the execution surface.
//
// SolverRegistry abstracts the solver axis of the paper's experiment
// grids; Instance abstracts the other axis. One Instance bundles
// everything a run needs about its input:
//
//   * a scannable repository of sets (in-memory CSR or an on-disk file
//     re-parsed per pass; for a geometric instance, its range space),
//   * the optional geometric payload (points + shapes) that kGeometric
//     solvers read alongside the stream, which carries no coordinates,
//   * metadata: name, n, m, provenance, and a planted cover when the
//     generator knows one (the denominator of measured approximation
//     ratios).
//
// RunSolver(name, Instance&, options) — core/solver_registry.h — is the
// only way to execute a solver: it draws a FRESH pass-counted stream and
// PassScheduler per run (so multi-trial sweeps never share or manually
// reset counters) and wires the geometric payload internally. Instances
// come from the factories below or, by name, from
// core/workload_registry.h.

#ifndef STREAMCOVER_CORE_INSTANCE_H_
#define STREAMCOVER_CORE_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geometry/geom_generators.h"
#include "geometry/geom_io.h"
#include "setsystem/cover.h"
#include "setsystem/generators.h"
#include "setsystem/set_system.h"
#include "stream/set_source.h"
#include "stream/set_stream.h"

namespace streamcover {

/// Descriptive metadata attached to an instance.
struct InstanceInfo {
  /// Short handle used in reports ("planted-n2000-s1", "fig12", ...).
  std::string name;
  /// Where the instance came from: generator + parameters, or a path.
  std::string provenance;
};

/// A runnable workload: stream + optional geometry + metadata. Movable,
/// not copyable (it may own large buffers or an open file source).
class Instance {
 public:
  /// Owns `system`.
  static Instance FromSystem(SetSystem system, InstanceInfo info);

  /// Owns the generated system and remembers the planted cover.
  static Instance FromPlanted(PlantedInstance planted, InstanceInfo info);

  /// Owns the geometric instance. Its repository, which every solver
  /// streams (algGeomSC too), is the range space — set i = trace of
  /// shape i — built once on first NewStream/Prepare/verification,
  /// outside any run. algGeomSC never stores it (its SpaceTracker shows
  /// O~(n) words); store-all solvers buffer it (Theta(n^2) on Fig. 1.2).
  static Instance FromGeometry(GeomInstance geom, InstanceInfo info);

  /// File-backed: the repository stays on disk (the model's read-only
  /// repository, literally) and is scanned through whichever source its
  /// magic selects — MmapSetSource for the binary format, text re-parse
  /// otherwise (stream/mmap_set_source.h). Returns std::nullopt and
  /// fills *error if the file is missing or malformed.
  static std::optional<Instance> FromFile(const std::string& path,
                                          std::string* error);

  /// Wraps an externally owned system (must outlive the Instance) —
  /// for callers that already hold a SetSystem and only need the
  /// execution surface on top.
  static Instance WrapSystem(const SetSystem* system, InstanceInfo info);

  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  const std::string& name() const { return info_.name; }
  const std::string& provenance() const { return info_.provenance; }

  /// |U| and |F|. For geometric instances these are points / shapes.
  uint32_t num_elements() const;
  uint32_t num_sets() const;

  /// Geometric payload; nullptr for abstract instances.
  const GeomDataset* geometry() const {
    return geometry_.has_value() ? &*geometry_ : nullptr;
  }
  bool has_geometry() const { return geometry_.has_value(); }

  /// Planted feasible cover (upper bound on OPT); empty when unknown.
  const std::vector<uint32_t>& planted_cover() const {
    return planted_cover_;
  }
  /// |planted cover|, or 0 when no bound is known.
  size_t opt_bound() const { return planted_cover_.size(); }

  /// The in-memory system backing this instance, or nullptr when the
  /// repository is file-backed or a geometric payload whose range space
  /// has not been built yet. Used by verifiers; solvers must go
  /// through NewStream().
  const SetSystem* materialized() const { return system_; }

  /// A fresh stream over the repository with its own pass counter.
  /// This is how every trial of a sweep gets independent pass
  /// accounting — never reset or share a stream across trials.
  /// For geometric instances this builds the range space on first use.
  SetStream NewStream();

  /// A fresh stream that is also safe to scan concurrently with other
  /// streams over this instance: file-backed repositories hand out a
  /// forked scanner (own decode buffer over the same mapped pages or
  /// file), in-memory systems an independent cursor over the shared
  /// CSR. The serving layer draws one per in-flight request. Requires
  /// Prepare() first (it is const — it will not materialize lazily).
  /// Returns std::nullopt with *error set if the repository cannot be
  /// forked.
  std::optional<SetStream> NewConcurrentStream(std::string* error) const;

  /// Forces any lazy materialization (geometric range space) so later
  /// const/concurrent access never mutates the instance. Idempotent;
  /// NewStream does this implicitly.
  void Prepare() { EnsureMaterialized(); }

  /// Resident footprint for cache byte accounting: CSR bytes when
  /// materialized in memory, plus the repository bytes (mapping or
  /// on-disk size) when file-backed.
  uint64_t resident_bytes() const;

  /// Number of elements of U covered by `cover`, via the materialized
  /// system when present, else one (uncounted) scan of the file source.
  size_t CountCovered(const Cover& cover);

  /// True iff `cover` covers every element.
  bool VerifyCover(const Cover& cover) {
    return CountCovered(cover) == num_elements();
  }

 private:
  Instance() = default;

  /// Builds the range space of a geometric payload on first use (no-op
  /// otherwise): the repository every solver streams.
  void EnsureMaterialized();

  InstanceInfo info_;
  std::unique_ptr<SetSystem> owned_system_;
  std::unique_ptr<SetSource> file_source_;  // disk-backed repositories
  const SetSystem* system_ = nullptr;  // owned_system_.get() or external
  std::optional<GeomDataset> geometry_;
  std::vector<uint32_t> planted_cover_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_CORE_INSTANCE_H_
