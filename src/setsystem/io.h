// Plain-text serialization of SetSystem instances.
//
// Format (whitespace separated):
//   setcover <n> <m>
//   <size_0> <e ...>
//   ...
//   <size_{m-1}> <e ...>
//
// TextSetWriter is the one text writer, the text twin of the binary
// format's BinarySetWriter (setsystem/binary_io.h). The one text parser
// is FileSetSource's scan (stream/set_source.h); LoadAnySetSystemFromFile
// (stream/mmap_set_source.h) loads a file of either format through it.

#ifndef STREAMCOVER_SETSYSTEM_IO_H_
#define STREAMCOVER_SETSYSTEM_IO_H_

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "setsystem/set_system.h"

namespace streamcover {

/// Streams sets to `os` in the text format, one line per set. Sets are
/// normalized exactly like BinarySetWriter::AddSet, so the two formats
/// carry identical logical instances, and like it a strictly increasing
/// set is written straight from the span.
class TextSetWriter {
 public:
  /// Writes the header; the caller then adds exactly `num_sets` sets.
  /// `os` must outlive the writer.
  TextSetWriter(std::ostream& os, uint32_t num_elements, uint32_t num_sets);

  /// Appends one set. Returns false — with the diagnostic in error() —
  /// on an out-of-range element or a failed write.
  bool AddSet(std::span<const uint32_t> elements);

  /// Flushes the stream. Returns false with *error set if a set was
  /// refused, the count of sets differs from the header's, or the
  /// stream failed.
  bool Finish(std::string* error);

  uint64_t nnz() const { return nnz_; }
  const std::string& error() const { return error_; }

 private:
  std::ostream* os_;
  uint32_t num_elements_;
  uint32_t declared_sets_;
  uint64_t sets_ = 0;
  uint64_t nnz_ = 0;
  std::vector<uint32_t> scratch_;  // normalization buffer
  std::vector<char> line_;         // one set's line
  std::string error_;
};

/// Writes `system` to `os` in the text format above.
void WriteSetSystem(const SetSystem& system, std::ostream& os);

/// Writes `system` to `path`. Returns false on IO failure.
bool SaveSetSystemToFile(const SetSystem& system, const std::string& path);

}  // namespace streamcover

#endif  // STREAMCOVER_SETSYSTEM_IO_H_
