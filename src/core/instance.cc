#include "core/instance.h"

#include <utility>

#include "geometry/range_space.h"
#include "stream/mmap_set_source.h"
#include "util/check.h"

namespace streamcover {

Instance Instance::FromSystem(SetSystem system, InstanceInfo info) {
  Instance instance;
  instance.info_ = std::move(info);
  instance.owned_system_ = std::make_unique<SetSystem>(std::move(system));
  instance.system_ = instance.owned_system_.get();
  return instance;
}

Instance Instance::FromPlanted(PlantedInstance planted, InstanceInfo info) {
  Instance instance = FromSystem(std::move(planted.system), std::move(info));
  instance.planted_cover_ = std::move(planted.planted_cover);
  return instance;
}

Instance Instance::FromGeometry(GeomInstance geom, InstanceInfo info) {
  Instance instance;
  instance.info_ = std::move(info);
  instance.geometry_ =
      GeomDataset{std::move(geom.points), std::move(geom.shapes)};
  instance.planted_cover_ = std::move(geom.planted_cover);
  return instance;
}

void Instance::EnsureMaterialized() {
  if (system_ != nullptr || !geometry_.has_value()) return;
  // Every solver streams the range space — set i = trace of shape i —
  // and algGeomSC reads the payload's shapes beside it. Built once, on
  // first demand, outside any solver's run: it can be quadratically
  // larger than the payload (Figure 1.2), which is the repository's
  // size, not a solver's space.
  owned_system_ = std::make_unique<SetSystem>(
      BuildRangeSpace(geometry_->points, geometry_->shapes));
  system_ = owned_system_.get();
}

std::optional<Instance> Instance::FromFile(const std::string& path,
                                           std::string* error) {
  std::unique_ptr<SetSource> source = OpenDiskSetSource(path, error);
  if (source == nullptr) return std::nullopt;
  Instance instance;
  instance.info_.name = path;
  instance.info_.provenance = "file:" + path;
  instance.file_source_ = std::move(source);
  return instance;
}

Instance Instance::WrapSystem(const SetSystem* system, InstanceInfo info) {
  SC_CHECK(system != nullptr);
  Instance instance;
  instance.info_ = std::move(info);
  instance.system_ = system;
  return instance;
}

uint32_t Instance::num_elements() const {
  if (file_source_ != nullptr) return file_source_->num_elements();
  if (system_ != nullptr) return system_->num_elements();
  if (geometry_.has_value()) {
    return static_cast<uint32_t>(geometry_->points.size());
  }
  return 0;
}

uint32_t Instance::num_sets() const {
  if (file_source_ != nullptr) return file_source_->num_sets();
  if (system_ != nullptr) return system_->num_sets();
  if (geometry_.has_value()) {
    return static_cast<uint32_t>(geometry_->shapes.size());
  }
  return 0;
}

SetStream Instance::NewStream() {
  if (file_source_ != nullptr) return SetStream(file_source_.get());
  EnsureMaterialized();
  SC_CHECK(system_ != nullptr);
  return SetStream(system_);
}

std::optional<SetStream> Instance::NewConcurrentStream(
    std::string* error) const {
  if (file_source_ != nullptr) {
    std::unique_ptr<SetSource> fork = file_source_->Fork(error);
    if (fork == nullptr) return std::nullopt;
    return SetStream(std::move(fork));
  }
  if (system_ == nullptr) {
    // Deliberately no lazy materialization here: this accessor is const
    // so concurrent callers never race on it. Prepare() first.
    if (error != nullptr) {
      *error = "instance not prepared for concurrent streaming";
    }
    return std::nullopt;
  }
  return SetStream(std::make_unique<InMemorySetSource>(system_));
}

uint64_t Instance::resident_bytes() const {
  uint64_t bytes = 0;
  if (system_ != nullptr) bytes += system_->MemoryBytes();
  if (const auto* mmap_source =
          dynamic_cast<const MmapSetSource*>(file_source_.get())) {
    bytes += mmap_source->repository_bytes();
  } else if (const auto* file_source =
                 dynamic_cast<const FileSetSource*>(file_source_.get())) {
    bytes += file_source->repository_bytes();
  }
  if (geometry_.has_value()) {
    bytes += static_cast<uint64_t>(geometry_->points.size()) *
                 sizeof(geometry_->points[0]) +
             static_cast<uint64_t>(geometry_->shapes.size()) *
                 sizeof(geometry_->shapes[0]);
  }
  return bytes;
}

size_t Instance::CountCovered(const Cover& cover) {
  if (file_source_ == nullptr) {
    EnsureMaterialized();
    SC_CHECK(system_ != nullptr);
    return CoveredCount(*system_, cover);
  }
  // One counting scan over the file source. It deliberately bypasses
  // SetStream: verification is the experimenter's step, not a pass the
  // algorithm is charged for.
  std::vector<char> in_cover(file_source_->num_sets(), 0);
  for (uint32_t id : cover.set_ids) {
    if (id < in_cover.size()) in_cover[id] = 1;
  }
  std::vector<char> covered(file_source_->num_elements(), 0);
  bool ok = file_source_->Scan([&](const SetView& set) {
    if (set.id >= in_cover.size() || in_cover[set.id] == 0) return;
    for (uint32_t e : set.elems) covered[e] = 1;
  });
  // A repository that fails mid-count verifies nothing.
  if (!ok) return 0;
  size_t count = 0;
  for (char c : covered) count += static_cast<size_t>(c);
  return count;
}

}  // namespace streamcover
