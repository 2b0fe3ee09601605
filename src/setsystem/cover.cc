#include "setsystem/cover.h"

#include <algorithm>

namespace streamcover {

void Cover::Deduplicate() {
  std::sort(set_ids.begin(), set_ids.end());
  set_ids.erase(std::unique(set_ids.begin(), set_ids.end()), set_ids.end());
}

DynamicBitset CoverageMask(const SetSystem& system, const Cover& cover) {
  DynamicBitset mask(system.num_elements());
  for (uint32_t s : cover.set_ids) {
    for (uint32_t e : system.GetSet(s)) mask.Set(e);
  }
  return mask;
}

size_t CoveredCount(const SetSystem& system, const Cover& cover) {
  return CoverageMask(system, cover).Count();
}

bool IsFullCover(const SetSystem& system, const Cover& cover) {
  return CoveredCount(system, cover) == system.num_elements();
}

bool IsCoverable(const SetSystem& system) {
  DynamicBitset mask(system.num_elements());
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    for (uint32_t e : system.GetSet(s)) mask.Set(e);
  }
  return mask.Count() == system.num_elements();
}

}  // namespace streamcover
