// Reference decoder for SCOVRB01 images: the serial loop that reads
// every varint through binfmt::DecodeVarint. The chunk decoder
// (stream/pipelined_scan.h) must agree with it set for set and
// diagnostic for diagnostic; mmap_source_test checks it under byte
// mutations, and filtered_scan_test checks that a filtered first scan
// of a corrupt file still fails the way it says.

#ifndef STREAMCOVER_TESTS_REFERENCE_DECODE_H_
#define STREAMCOVER_TESTS_REFERENCE_DECODE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "setsystem/binary_io.h"

namespace streamcover::reference {

/// What a scan of a SCOVRB01 image yields: the sets delivered, in order,
/// and the diagnostic that stopped it ("" after a full scan), without the
/// path prefix.
struct Decoded {
  std::vector<std::vector<uint32_t>> sets;
  std::string error;
};

inline binfmt::BinaryLayout ImageLayout(const std::string& image) {
  binfmt::BinaryLayout layout;
  std::string error;
  EXPECT_TRUE(binfmt::ValidateBinaryLayout(
      reinterpret_cast<const uint8_t*>(image.data()), image.size(), &layout,
      &error))
      << error;
  return layout;
}

/// Decodes `image` set by set. It keeps every set before the first
/// corrupt one.
inline Decoded ReferenceDecode(const std::string& image) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(image.data());
  const binfmt::BinaryLayout layout = ImageLayout(image);
  Decoded out;
  for (uint64_t s = 0; s < layout.m; ++s) {
    const uint8_t* cursor = data + layout.SetOffset(s);
    const uint8_t* end = data + layout.SetOffset(s + 1);
    const std::string where = "corrupt set " + std::to_string(s) + ": ";
    auto size = binfmt::DecodeVarint(&cursor, end);
    if (!size.has_value() || *size > layout.max_set_size) {
      out.error = where + "bad size varint";
      return out;
    }
    std::vector<uint32_t> set;
    uint64_t prev = 0;
    for (uint64_t j = 0; j < *size; ++j) {
      auto delta = binfmt::DecodeVarint(&cursor, end);
      if (!delta.has_value()) {
        out.error = where + "truncated body";
        return out;
      }
      const uint64_t e = (j == 0) ? *delta : prev + *delta + 1;
      if (*delta >= layout.n || e >= layout.n) {
        out.error = where + "element id out of range";
        return out;
      }
      set.push_back(static_cast<uint32_t>(e));
      prev = e;
    }
    if (cursor != end) {
      out.error = where + "trailing bytes";
      return out;
    }
    out.sets.push_back(std::move(set));
  }
  return out;
}

}  // namespace streamcover::reference

#endif  // STREAMCOVER_TESTS_REFERENCE_DECODE_H_
