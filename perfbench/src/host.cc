#include "host.h"

#include <sched.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "util/cover_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

/// First "key : value" line of a /proc file whose key starts with `key`.
std::string ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const size_t begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "";
}

}  // namespace

uint32_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

CpuTicks ReadCpuTicks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks ticks;
  if (label != "cpu") return ticks;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  // "VmHWM:    123456 kB"
  const std::string field = ProcField("/proc/self/status", "VmHWM");
  return field.empty() ? 0 : std::strtod(field.c_str(), nullptr) / 1024.0;
}

streamcover::JsonValue HostBlock() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const uint32_t cpus = UsableCpus();
  const bool optimized = build_type == "Release" ||
                         build_type == "RelWithDebInfo" ||
                         build_type == "MinSizeRel";
  streamcover::JsonValue host = streamcover::JsonValue::Object();
  host.Set("nproc", static_cast<uint64_t>(cpus));
  host.Set("cpu_model", ProcField("/proc/cpuinfo", "model name"));
  host.Set("kernel_isa",
           streamcover::KernelIsaName(streamcover::DetectKernelIsa()));
  host.Set("compiler", PERFBENCH_COMPILER);
  host.Set("build_type", build_type);
  host.Set("git_commit", EnvOr("PERFBENCH_GIT_COMMIT", "unknown"));
  host.Set("source_digest", EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown"));
  host.Set("comparable", cpus >= 4 && optimized);
  return host;
}

}  // namespace perfbench
