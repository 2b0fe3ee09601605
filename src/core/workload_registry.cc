#include "core/workload_registry.h"

#include <algorithm>
#include <utility>

#include "geometry/geom_generators.h"
#include "setsystem/generators.h"
#include "util/rng.h"

namespace streamcover {
namespace {

std::string GeneratedName(const char* family, const WorkloadParams& params) {
  return std::string(family) + "(" + params.Describe() + ")";
}

InstanceInfo GeneratedInfo(const char* family, const WorkloadParams& params) {
  InstanceInfo info;
  info.name = GeneratedName(family, params);
  info.provenance = std::string("generator:") + family;
  return info;
}

std::optional<Instance> MakePlanted(const WorkloadParams& params,
                                    std::string* error) {
  if (!WorkloadParamsFit("planted", params, error)) return std::nullopt;
  Rng rng(params.seed);
  PlantedOptions options;
  options.num_elements = params.n;
  options.num_sets = params.m;
  options.cover_size = params.k;
  options.noise_max_size = std::max(1u, params.n / 20);
  return Instance::FromPlanted(GeneratePlanted(options, rng),
                               GeneratedInfo("planted", params));
}

std::optional<Instance> MakeSparse(const WorkloadParams& params,
                                   std::string* error) {
  if (!WorkloadParamsFit("sparse", params, error)) return std::nullopt;
  Rng rng(params.seed);
  return Instance::FromPlanted(
      GenerateSparse(params.n, params.m, params.max_set_size, rng),
      GeneratedInfo("sparse", params));
}

std::optional<Instance> MakeZipf(const WorkloadParams& params,
                                 std::string* error) {
  if (!WorkloadParamsFit("zipf", params, error)) return std::nullopt;
  Rng rng(params.seed);
  return Instance::FromPlanted(
      GenerateZipf(params.n, params.m, params.alpha, params.max_set_size,
                   rng),
      GeneratedInfo("zipf", params));
}

std::optional<Instance> MakeAdversarial(const WorkloadParams& params,
                                        std::string* error) {
  if (!WorkloadParamsFit("adversarial", params, error)) return std::nullopt;
  return Instance::FromPlanted(GenerateGreedyAdversarial(params.levels),
                               GeneratedInfo("adversarial", params));
}

std::optional<Instance> MakeDisjointBlocks(const WorkloadParams& params,
                                           std::string* error) {
  if (!WorkloadParamsFit("disjoint_blocks", params, error)) {
    return std::nullopt;
  }
  Rng rng(params.seed);
  const uint32_t singletons =
      params.m > params.k ? params.m - params.k : 0;
  return Instance::FromPlanted(
      GenerateDisjointBlocks(params.n, params.k, singletons, rng),
      GeneratedInfo("disjoint_blocks", params));
}

std::optional<Instance> MakeGeom(ShapeClass cls, const char* family,
                                 const WorkloadParams& params,
                                 std::string* error) {
  if (!WorkloadParamsFit(family, params, error)) return std::nullopt;
  Rng rng(params.seed);
  GeomPlantedOptions options;
  options.num_points = params.n;
  options.num_shapes = params.m;
  options.cover_size = params.k;
  options.shape_class = cls;
  return Instance::FromGeometry(GeneratePlantedGeom(options, rng),
                                GeneratedInfo(family, params));
}

std::optional<Instance> MakeFigure12(const WorkloadParams& params,
                                     std::string* error) {
  if (!WorkloadParamsFit("figure12", params, error)) return std::nullopt;
  const uint32_t n = params.n % 2 == 0 ? params.n : params.n + 1;
  return Instance::FromGeometry(GenerateFigure12(n),
                                GeneratedInfo("figure12", params));
}

std::optional<Instance> MakeFile(const WorkloadParams& params,
                                 std::string* error) {
  if (params.path.empty()) {
    if (error != nullptr) {
      *error = "workload 'file' needs WorkloadParams::path";
    }
    return std::nullopt;
  }
  return Instance::FromFile(params.path, error);
}

void RegisterBuiltins(WorkloadRegistry& registry) {
  using Kind = WorkloadRegistry::Kind;
  auto add = [&](const char* name, const char* description, Kind kind,
                 WorkloadRegistry::Factory make) {
    registry.Register({name, description, kind, std::move(make)});
  };

  add("planted",
      "k planted cover blocks + uniform noise sets; OPT <= k (the bench "
      "staple)",
      Kind::kAbstract, MakePlanted);
  add("sparse",
      "all sets of size <= max_set_size over a hidden partition; "
      "stresses small-set regimes",
      Kind::kAbstract, MakeSparse);
  add("zipf",
      "power-law set sizes + skewed element popularity (web-scale "
      "coverage shape)",
      Kind::kAbstract, MakeZipf);
  add("adversarial",
      "greedy lower-bound family: OPT=2 but greedy picks `levels` sets; "
      "deterministic",
      Kind::kAbstract, MakeAdversarial);
  add("disjoint_blocks",
      "k equal blocks + singleton distractors; OPT = k exactly",
      Kind::kAbstract, MakeDisjointBlocks);
  add("geom_disks",
      "planted clusters covered by disks + noise disks (Theorem 4.6 "
      "workload)",
      Kind::kGeometric,
      [](const WorkloadParams& p, std::string* error) {
        return MakeGeom(ShapeClass::kDisk, "geom_disks", p, error);
      });
  add("geom_rects",
      "planted clusters covered by axis-parallel rectangles + noise",
      Kind::kGeometric,
      [](const WorkloadParams& p, std::string* error) {
        return MakeGeom(ShapeClass::kRect, "geom_rects", p, error);
      });
  add("geom_triangles",
      "planted clusters covered by fat triangles + noise",
      Kind::kGeometric,
      [](const WorkloadParams& p, std::string* error) {
        return MakeGeom(ShapeClass::kFatTriangle, "geom_triangles", p, error);
      });
  add("figure12",
      "Figure 1.2 pathology: Theta(n^2) distinct 2-point rectangles, "
      "OPT <= 2",
      Kind::kGeometric, MakeFigure12);
  add("file",
      "on-disk repository (setsystem/io.h format) re-parsed per pass; "
      "needs WorkloadParams::path",
      Kind::kFile, MakeFile);
}

}  // namespace

bool WorkloadParamsFit(std::string_view name, const WorkloadParams& params,
                       std::string* error) {
  // One generator precondition, named the way an error message shows it.
  struct Bound {
    bool holds;
    std::string text;
  };
  const uint64_t n = params.n, m = params.m, k = params.k;
  const uint64_t size = params.max_set_size;
  std::vector<Bound> bounds;
  if (name == "planted") {
    bounds = {{k >= 1, "k >= 1"}, {n >= k, "n >= k"}, {m >= k, "m >= k"}};
  } else if (name == "sparse" || name == "zipf") {
    // The hidden partition of U into blocks of max_set_size that both
    // plant, one set per block.
    const uint64_t blocks = size == 0 ? 0 : (n + size - 1) / size;
    bounds = {{n >= 1, "n >= 1"},
              {size >= 1, "max_set_size >= 1"},
              {m >= blocks, "m >= ceil(n / max_set_size) = " +
                                std::to_string(blocks)}};
  } else if (name == "adversarial") {
    // n = 2^(levels+1) - 2 must stay within the 2^31 element ids the
    // file formats carry.
    bounds = {{params.levels >= 1 && params.levels <= 30,
               "levels in [1, 30], got " + std::to_string(params.levels)}};
  } else if (name == "disjoint_blocks") {
    bounds = {{k >= 1, "k >= 1"}, {n >= k, "n >= k"}};
  } else if (name == "geom_disks" || name == "geom_rects" ||
             name == "geom_triangles") {
    bounds = {{k >= 1, "k >= 1"}, {m >= k, "m >= k"}};
  } else if (name == "figure12") {
    // Odd n rounds up to even, and the (n/2)^2 + 2 rectangles must fit
    // 32-bit set ids.
    bounds = {{n >= 4 && n <= 131070,
               "n in [4, 131070], got " + std::to_string(n)}};
  }
  for (const Bound& bound : bounds) {
    if (bound.holds) continue;
    if (error != nullptr) {
      *error = "workload '" + std::string(name) + "' (" +
               params.Describe() + ") out of range: needs " + bound.text;
    }
    return false;
  }
  return true;
}

std::string WorkloadParams::Describe() const {
  std::string out = "n=" + std::to_string(n) + ",m=" + std::to_string(m) +
                    ",k=" + std::to_string(k) +
                    ",seed=" + std::to_string(seed);
  if (!path.empty()) out += ",path=" + path;
  return out;
}

WorkloadRegistry& WorkloadRegistry::Global() {
  static WorkloadRegistry* registry = [] {
    auto* r = new WorkloadRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

bool WorkloadRegistry::Register(Entry entry) {
  if (entry.name.empty() || !entry.make) return false;
  return entries_.emplace(entry.name, std::move(entry)).second;
}

const WorkloadRegistry::Entry* WorkloadRegistry::Find(
    std::string_view name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> WorkloadRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::vector<const WorkloadRegistry::Entry*> WorkloadRegistry::Entries()
    const {
  std::vector<const Entry*> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) entries.push_back(&entry);
  return entries;
}

std::optional<Instance> MakeWorkload(std::string_view name,
                                     const WorkloadParams& params,
                                     std::string* error) {
  const WorkloadRegistry::Entry* entry =
      WorkloadRegistry::Global().Find(name);
  if (entry == nullptr) {
    if (error != nullptr) {
      *error = "unknown workload '" + std::string(name) + "'; available: ";
      bool first = true;
      for (const std::string& known : WorkloadRegistry::Global().Names()) {
        if (!first) *error += ", ";
        *error += known;
        first = false;
      }
    }
    return std::nullopt;
  }
  std::string scratch;
  std::optional<Instance> instance =
      entry->make(params, error != nullptr ? error : &scratch);
  if (!instance.has_value() && error != nullptr && error->empty()) {
    *error = "workload '" + entry->name + "' failed to build";
  }
  return instance;
}

}  // namespace streamcover
