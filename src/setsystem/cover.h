// Cover: a candidate solution (multiset of set ids) plus verification
// utilities shared by every algorithm, test, and bench.

#ifndef STREAMCOVER_SETSYSTEM_COVER_H_
#define STREAMCOVER_SETSYSTEM_COVER_H_

#include <cstdint>
#include <vector>

#include "setsystem/set_system.h"
#include "util/bitset.h"

namespace streamcover {

/// A candidate set cover: the ids of the chosen sets.
struct Cover {
  std::vector<uint32_t> set_ids;

  size_t size() const { return set_ids.size(); }

  /// Removes duplicate ids (algorithms may pick a set twice across
  /// iterations; the solution counts it once).
  void Deduplicate();
};

/// Bitmask over U of elements covered by `cover`.
DynamicBitset CoverageMask(const SetSystem& system, const Cover& cover);

/// Number of elements of U covered by `cover`.
size_t CoveredCount(const SetSystem& system, const Cover& cover);

/// True iff `cover` covers every element of U.
bool IsFullCover(const SetSystem& system, const Cover& cover);

/// True iff every element belongs to at least one set (a full cover
/// exists at all).
bool IsCoverable(const SetSystem& system);

}  // namespace streamcover

#endif  // STREAMCOVER_SETSYSTEM_COVER_H_
