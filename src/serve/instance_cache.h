// InstanceCache — named, refcounted, immutable resident instances.
//
// The serving layer answers solve requests against instances it keeps
// resident between requests: a request names its instance ("fig12",
// "planted:n=2000,...", or a file path) and the cache resolves that
// name once, Prepare()s the result so every later access is const, and
// hands out shared_ptr pins. Loading is single-flight (concurrent
// requests for the same cold name share one load instead of stampeding
// a 30s disk parse), eviction is LRU by a byte budget, and an evicted
// instance only frees its memory when the last in-flight request drops
// its pin — eviction never invalidates a running solve.
//
// Name grammar:
//   * a path to an existing file          -> Instance::FromFile
//   * "workload[:k=v,...]"                -> WorkloadRegistry factory,
//     with n/m/k/max_set_size/alpha/levels/seed/path params parsed from
//     the suffix (same knobs as the CLI's generate flags).

#ifndef STREAMCOVER_SERVE_INSTANCE_CACHE_H_
#define STREAMCOVER_SERVE_INSTANCE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/instance.h"

namespace streamcover {

/// Counters for the stats endpoint.
struct InstanceCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t load_failures = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_count = 0;
};

/// For a `name` whose load failed: true iff the request is malformed —
/// a workload spec with an unparseable "k=v,..." suffix (bad syntax,
/// unknown or duplicate key, bad value; *error gets the parse
/// diagnostic), or a generated workload whose params parse but are out
/// of range — as opposed to naming an unknown workload or missing file.
/// Lets the serving layer answer bad_request instead of not_found.
bool IsMalformedInstanceSpec(const std::string& name, std::string* error);

/// One resident entry as reported by List().
struct ResidentInstance {
  std::string name;
  uint64_t bytes = 0;
  uint64_t requests = 0;
};

class InstanceCache {
 public:
  /// `byte_budget` caps the sum of resident_bytes() across entries;
  /// 0 = unlimited. A single instance larger than the budget still
  /// loads (it becomes the only resident and is evicted by the next).
  explicit InstanceCache(uint64_t byte_budget = 0);

  InstanceCache(const InstanceCache&) = delete;
  InstanceCache& operator=(const InstanceCache&) = delete;

  /// Resolves `name` to a pinned resident instance, loading it on miss
  /// (single-flight: concurrent misses on one name share the load).
  /// Returns nullptr with *error set when the name resolves to nothing
  /// loadable. The returned pin keeps the instance alive across
  /// eviction.
  std::shared_ptr<const Instance> Get(const std::string& name,
                                      std::string* error);

  /// Current counters.
  InstanceCacheStats Stats() const;

  /// Resident entries, most recently used first.
  std::vector<ResidentInstance> List() const;

 private:
  struct Entry {
    std::shared_ptr<const Instance> instance;  // null while loading
    uint64_t bytes = 0;
    uint64_t requests = 0;
    bool loading = true;
    bool failed = false;
    std::string load_error;
    std::list<std::string>::iterator lru_pos;
  };

  /// Loads outside the lock; never touches members.
  static std::shared_ptr<const Instance> Load(const std::string& name,
                                              std::string* error);

  void TouchLocked(Entry& entry, const std::string& name);
  void EvictLocked();

  const uint64_t byte_budget_;
  mutable std::mutex mu_;
  std::condition_variable load_done_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  InstanceCacheStats stats_;
};

}  // namespace streamcover

#endif  // STREAMCOVER_SERVE_INSTANCE_CACHE_H_
