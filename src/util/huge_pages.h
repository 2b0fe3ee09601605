// Transparent huge pages for the large transient buffers of a solve.
//
// The projection arena (util/arena.h) and the greedy index's entries
// (setsystem/transposed_index.h) are each tens of MiB on the disk
// workloads, written once front to back right after they are
// allocated. On 4 KiB pages their first touch costs one fault per
// page; advised onto 2 MiB pages it costs one per 512 pages. The
// advice matters only where the kernel's THP mode is `madvise` (on
// `always` every large mapping gets huge pages anyway, on `never` none
// does), and it never changes what a buffer holds.

#ifndef STREAMCOVER_UTIL_HUGE_PAGES_H_
#define STREAMCOVER_UTIL_HUGE_PAGES_H_

#include <cstddef>
#include <string>

namespace streamcover {

/// The huge page size AdviseHugePages aligns to.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Asks the kernel to back the 2 MiB-aligned interior of
/// [data, data + bytes) with huge pages. Call it on a fresh buffer
/// before its first touch: pages already faulted in stay small. A
/// buffer holding no whole aligned 2 MiB page gets no advice. Failure
/// is ignored (it is advice), and the call does nothing where the
/// platform has no MADV_HUGEPAGE.
void AdviseHugePages(void* data, size_t bytes);

/// The host's THP mode: the bracketed word of
/// /sys/kernel/mm/transparent_hugepage/enabled (`always`, `madvise` or
/// `never`), or `unavailable` when the file cannot be read.
std::string TransparentHugePageMode();

}  // namespace streamcover

#endif  // STREAMCOVER_UTIL_HUGE_PAGES_H_
