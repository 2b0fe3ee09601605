// Host block attached to every benchmark result, so that numbers from a
// 1-CPU box or an unoptimized build are never mistaken for another
// host's numbers.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>

#include "util/json.h"

namespace perfbench {

/// CPUs this process may run on (sched_getaffinity).
uint32_t UsableCpus();

/// Peak resident set size of this process (VmHWM), in MiB; 0 if unknown.
double PeakRssMb();

/// Cumulative jiffies from the "cpu" line of /proc/stat: all of them,
/// and those stolen by the hypervisor for other guests.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time stolen between two readings; 0 if none elapsed.
double StealFraction(const CpuTicks& before, const CpuTicks& after);

/// Restarts the VmHWM peak at the current RSS, so PeakRssMb() covers
/// only what follows. False where the kernel does not allow it.
bool ResetPeakRss();

/// nproc, CPU model, detected kernel ISA, compiler, build type, and the
/// source revision (PERFBENCH_GIT_COMMIT / PERFBENCH_SOURCE_DIGEST from
/// the environment, "unknown" when unset). "comparable" is false for
/// fewer than 4 CPUs or a build without optimization.
streamcover::JsonValue HostBlock();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
