#include "serve/instance_cache.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "core/workload_registry.h"

namespace streamcover {
namespace {

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

bool ParseUint32(const std::string& text, uint32_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' ||
      v > 0xFFFFFFFFULL) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

/// Parses the "k=v,k=v" suffix of a workload name into WorkloadParams.
/// Repeated keys are rejected: a spec like "n=300,n=400" is almost
/// always a caller bug, and silently keeping the last value would make
/// two different spec strings name the same cache entry's twin.
bool ParseWorkloadParams(const std::string& spec, WorkloadParams* params,
                         std::string* error) {
  std::vector<std::string> seen_keys;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string pair = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      *error = "bad workload param '" + pair + "' (expected key=value)";
      return false;
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
        seen_keys.end()) {
      *error = "duplicate workload param '" + key + "'";
      return false;
    }
    seen_keys.push_back(key);
    bool ok = true;
    if (key == "n") {
      ok = ParseUint32(value, &params->n);
    } else if (key == "m") {
      ok = ParseUint32(value, &params->m);
    } else if (key == "k") {
      ok = ParseUint32(value, &params->k);
    } else if (key == "max_set_size") {
      ok = ParseUint32(value, &params->max_set_size);
    } else if (key == "alpha") {
      ok = ParseDouble(value, &params->alpha);
    } else if (key == "levels") {
      ok = ParseUint32(value, &params->levels);
    } else if (key == "seed") {
      ok = ParseUint64(value, &params->seed);
    } else if (key == "path") {
      params->path = value;
    } else {
      *error = "unknown workload param '" + key + "'";
      return false;
    }
    if (!ok) {
      *error = "bad value for workload param '" + key + "': " + value;
      return false;
    }
  }
  return true;
}

}  // namespace

bool IsMalformedInstanceSpec(const std::string& name, std::string* error) {
  // A real file resolves regardless of what its name looks like, and a
  // bare name (no params) can only fail as unknown — both are the
  // caller naming something that does not exist, not a syntax error.
  if (FileExists(name)) return false;
  const size_t colon = name.find(':');
  if (colon == std::string::npos) return false;
  WorkloadParams scratch;
  std::string param_error;
  if (!ParseWorkloadParams(name.substr(colon + 1), &scratch, &param_error)) {
    if (error != nullptr) *error = name + ": " + param_error;
    return true;
  }
  // The params parse. A generated workload reads no file, so its load
  // failed because its factory found them out of range.
  const WorkloadRegistry::Entry* entry =
      WorkloadRegistry::Global().Find(name.substr(0, colon));
  return entry != nullptr && entry->kind != WorkloadRegistry::Kind::kFile;
}

InstanceCache::InstanceCache(uint64_t byte_budget)
    : byte_budget_(byte_budget) {}

std::shared_ptr<const Instance> InstanceCache::Load(const std::string& name,
                                                    std::string* error) {
  // A path wins over a workload name: serving real repositories is the
  // primary mode, and registry names never contain '/'.
  if (FileExists(name)) {
    std::optional<Instance> instance = Instance::FromFile(name, error);
    if (!instance.has_value()) return nullptr;
    instance->Prepare();
    return std::make_shared<const Instance>(std::move(*instance));
  }
  const size_t colon = name.find(':');
  const std::string base = name.substr(0, colon);
  WorkloadParams params;
  if (colon != std::string::npos) {
    std::string param_error;
    if (!ParseWorkloadParams(name.substr(colon + 1), &params,
                             &param_error)) {
      if (error != nullptr) *error = name + ": " + param_error;
      return nullptr;
    }
  }
  std::optional<Instance> instance = MakeWorkload(base, params, error);
  if (!instance.has_value()) return nullptr;
  // Force any lazy materialization now, while this thread is the sole
  // owner — every later access through the cache is const and shared.
  instance->Prepare();
  return std::make_shared<const Instance>(std::move(*instance));
}

std::shared_ptr<const Instance> InstanceCache::Get(const std::string& name,
                                                   std::string* error) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(name);
    if (it == entries_.end()) break;  // cold: this thread loads
    Entry& entry = it->second;
    if (entry.loading) {
      // Another thread is loading this name; share its outcome.
      load_done_.wait(lock);
      continue;
    }
    if (entry.failed) {
      // Failed loads are not cached (the file may appear later);
      // retry from scratch.
      lru_.erase(entry.lru_pos);
      entries_.erase(it);
      break;
    }
    ++stats_.hits;
    ++entry.requests;
    TouchLocked(entry, name);
    return entry.instance;
  }

  ++stats_.misses;
  Entry& entry = entries_[name];
  entry.loading = true;
  entry.lru_pos = lru_.insert(lru_.begin(), name);
  lock.unlock();

  std::string load_error;
  std::shared_ptr<const Instance> loaded = Load(name, &load_error);

  lock.lock();
  auto it = entries_.find(name);
  // The entry cannot have been evicted mid-load (EvictLocked skips
  // loading entries), so it is still there.
  Entry& done = it->second;
  done.loading = false;
  if (loaded == nullptr) {
    done.failed = true;
    done.load_error = load_error;
    ++stats_.load_failures;
    lru_.erase(done.lru_pos);
    entries_.erase(it);
    load_done_.notify_all();
    if (error != nullptr) *error = load_error;
    return nullptr;
  }
  done.instance = loaded;
  done.bytes = loaded->resident_bytes();
  done.requests = 1;
  stats_.resident_bytes += done.bytes;
  ++stats_.resident_count;
  EvictLocked();
  load_done_.notify_all();
  return loaded;
}

void InstanceCache::TouchLocked(Entry& entry, const std::string& name) {
  lru_.erase(entry.lru_pos);
  entry.lru_pos = lru_.insert(lru_.begin(), name);
}

void InstanceCache::EvictLocked() {
  if (byte_budget_ == 0) return;
  // Evict coldest-first until within budget, but always keep at least
  // one resident: a cache whose budget is smaller than its hottest
  // instance must still serve it.
  while (stats_.resident_bytes > byte_budget_ && entries_.size() > 1) {
    const std::string victim_name = lru_.back();
    auto it = entries_.find(victim_name);
    if (it == entries_.end() || it->second.loading) break;
    stats_.resident_bytes -= it->second.bytes;
    --stats_.resident_count;
    ++stats_.evictions;
    lru_.pop_back();
    entries_.erase(it);
    // In-flight requests still pin the instance via their shared_ptr;
    // the bytes leave the accounting now and the heap when they drop.
  }
}

InstanceCacheStats InstanceCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ResidentInstance> InstanceCache::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ResidentInstance> out;
  out.reserve(lru_.size());
  for (const std::string& name : lru_) {
    auto it = entries_.find(name);
    if (it == entries_.end() || it->second.loading) continue;
    out.push_back(
        ResidentInstance{name, it->second.bytes, it->second.requests});
  }
  return out;
}

}  // namespace streamcover
