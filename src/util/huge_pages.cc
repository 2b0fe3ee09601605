#include "util/huge_pages.h"

#include <sys/mman.h>

#include <cstdint>
#include <fstream>

namespace streamcover {

void AdviseHugePages(void* data, size_t bytes) {
#ifdef MADV_HUGEPAGE
  constexpr uintptr_t kHugePage = kHugePageBytes;
  const uintptr_t start = reinterpret_cast<uintptr_t>(data);
  const uintptr_t begin = (start + kHugePage - 1) & ~(kHugePage - 1);
  const uintptr_t end = (start + bytes) & ~(kHugePage - 1);
  if (end > begin) {
    madvise(reinterpret_cast<void*>(begin), end - begin, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

std::string TransparentHugePageMode() {
  std::ifstream file("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(file, line)) return "unavailable";
  const size_t open = line.find('[');
  const size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return "unavailable";
  }
  return line.substr(open + 1, close - open - 1);
}

}  // namespace streamcover
