// Binary on-disk CSR format for SetSystem repositories.
//
// The text format (setsystem/io.h) re-parses every number on every
// physical scan, which caps disk-backed runs far below the m≈10^7–10^8
// regime the paper targets. This format is the out-of-core counterpart:
// compact enough that scans are bandwidth-bound, seekable enough that a
// set can be located without decoding its predecessors, and validated
// enough that a truncated or corrupt file fails at Open instead of
// aborting mid-scan.
//
// Layout (all fixed-width fields little-endian):
//
//   header (64 bytes)
//     [0,8)   magic "SCOVRB01"
//     [8,12)  uint32 version (1)
//     [12,16) uint32 header_bytes (64)
//     [16,24) uint64 n  (|U|)
//     [24,32) uint64 m  (|F|)
//     [32,40) uint64 nnz (sum of set sizes after sort/dedup)
//     [40,48) uint64 footer_offset (absolute byte offset of the footer)
//     [48,56) uint64 body_checksum (FNV-1a 64 over the body bytes)
//     [56,64) uint64 reserved (0)
//   body (footer_offset - 64 bytes)
//     m sets, each: varint(size), then `size` element ids delta-encoded
//     as varints — the first id raw, each subsequent id as
//     (id - previous - 1). Sets are sorted and duplicate-free, so the
//     deltas are non-negative and decoding reproduces the sorted-unique
//     dispatch invariant every kernel relies on.
//   footer ((m+1) * 8 bytes)
//     uint64 absolute byte offset of each set's encoding;
//     offsets[0] == 64 and offsets[m] == footer_offset. This is what
//     makes sets seekable and lets Open validate the body structurally
//     without decoding it.
//   trailer (8 bytes)
//     end magic "SCOVREND" — a cheap truncation tripwire.
//
// So at least 16 bytes (a footer of >= 8, then the trailer) follow every
// body byte, and ValidateBinaryLayout checks the sizes that make this
// so. The scan decoder (stream/pipelined_scan.h) relies on it: it reads
// short varints with one 8-byte load, even from the last set's end.
//
// Varints are LEB128 (7 bits per byte, high bit = continuation).

#ifndef STREAMCOVER_SETSYSTEM_BINARY_IO_H_
#define STREAMCOVER_SETSYSTEM_BINARY_IO_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "setsystem/set_system.h"

namespace streamcover {

namespace binfmt {

inline constexpr char kMagic[8] = {'S', 'C', 'O', 'V', 'R', 'B', '0', '1'};
inline constexpr char kEndMagic[8] = {'S', 'C', 'O', 'V', 'R', 'E', 'N',
                                      'D'};
inline constexpr uint32_t kVersion = 1;
inline constexpr uint64_t kHeaderBytes = 64;
/// n and m share the text format's 2^31 ceiling (ids are uint32).
inline constexpr uint64_t kMaxDimension = uint64_t{1} << 31;

/// FNV-1a 64 over `bytes`, continuing from `state` (seed with
/// kFnvOffset). The writer folds body bytes in as it emits them; readers
/// re-fold to verify.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
uint64_t Fnv1a(const uint8_t* bytes, size_t len, uint64_t state);

/// Appends the LEB128 encoding of `value` to `out`.
void AppendVarint(uint64_t value, std::string& out);

/// Decodes one LEB128 varint from [*cursor, end). Advances *cursor past
/// it and returns the value; returns std::nullopt (cursor unspecified)
/// on truncation or an encoding longer than 10 bytes.
std::optional<uint64_t> DecodeVarint(const uint8_t** cursor,
                                     const uint8_t* end);

/// Validated view of a binary file's structure: header fields plus a
/// pointer to the offsets footer. Produced by ValidateBinaryLayout.
struct BinaryLayout {
  uint64_t n = 0;
  uint64_t m = 0;
  uint64_t nnz = 0;
  uint64_t footer_offset = 0;
  uint64_t checksum = 0;
  const uint8_t* footer = nullptr;  // (m+1) uint64 offsets, unaligned
  /// Upper bound on every set's size: the widest footer span minus one,
  /// clamped to n (a set spends >= 1 byte on its size varint and >= 1
  /// per element). 0 when m == 0. The scan decoder rejects any set that
  /// claims more, so no scan delivers a set above it.
  uint64_t max_set_size = 0;

  /// Absolute byte offset of set s's encoding (s in [0, m]).
  uint64_t SetOffset(uint64_t s) const;
};

/// Checks that [data, data+size) is a well-formed binary file: magic,
/// version, dimension bounds, file size consistent with the footer
/// offset, end magic present, and footer offsets monotone spanning
/// exactly the body; fills the set-size bound on the same footer walk.
/// Decodes NO set bodies — this is MmapSetSource's cheap Open-time
/// validation; the scan decoder checks every body, and a full load
/// also checks the body checksum (MmapSetSource::VerifyChecksum).
bool ValidateBinaryLayout(const uint8_t* data, uint64_t size,
                          BinaryLayout* layout, std::string* error);

/// A contiguous run of sets for one decode unit of the pipelined scan:
/// sets [first_set, first_set + set_count) occupying body bytes
/// [byte_begin, byte_end) — absolute file offsets straight off the
/// offsets footer, so a chunk can be decoded (and madvise'd) without
/// touching any predecessor.
struct ScanChunk {
  uint32_t first_set = 0;
  uint32_t set_count = 0;
  uint64_t byte_begin = 0;
  uint64_t byte_end = 0;
};

/// Splits [0, m) into chunks of >= 1 set each, walking the offsets
/// footer and closing a chunk once it holds at least `target_bytes` of
/// encoded body (so chunk count tracks encoded size, not set count —
/// fixed work per decode unit regardless of set-size skew).
/// target_bytes == 0 yields one chunk; m == 0 yields none.
std::vector<ScanChunk> BuildChunkPlan(const BinaryLayout& layout,
                                      uint64_t target_bytes);

}  // namespace binfmt

/// True iff `path` starts with the binary magic. False for missing,
/// short, or text files — OpenDiskSetSource then opens the text parser.
bool IsBinarySetSystemFile(const std::string& path);

/// Streaming writer: sets go straight from the caller to disk, so
/// multi-GB repositories are written in O(n + m) memory (the offsets
/// footer, a 1 MiB encode buffer and one scratch set), never O(nnz).
class BinarySetWriter {
 public:
  /// Creates/truncates `path` and reserves the header. Returns
  /// std::nullopt + *error if the file cannot be opened or
  /// num_elements is out of range.
  static std::optional<BinarySetWriter> Create(const std::string& path,
                                               uint64_t num_elements,
                                               std::string* error);

  BinarySetWriter(BinarySetWriter&& other) noexcept;
  BinarySetWriter& operator=(BinarySetWriter&& other) noexcept;
  BinarySetWriter(const BinarySetWriter&) = delete;
  BinarySetWriter& operator=(const BinarySetWriter&) = delete;
  ~BinarySetWriter();

  /// Appends one set. Elements are normalized to sorted-unique before
  /// encoding (same contract as SetSystem::Builder::AddSet); a strictly
  /// increasing set — what the stream generators and every scan hand
  /// over — is encoded straight from the span, with no copy or sort.
  /// Encoded bytes collect in a 1 MiB buffer that is written out when
  /// full and by Finish. Returns false — with the diagnostic in
  /// error() — on an out-of-range element or an IO failure (which may
  /// surface on a later AddSet or in Finish).
  bool AddSet(std::span<const uint32_t> elements);

  /// Writes the footer + trailer and patches the header. The writer is
  /// unusable afterwards. Returns false + *error on IO failure (or if
  /// any AddSet had failed).
  bool Finish(std::string* error);

  uint64_t num_sets() const { return offsets_.size() - 1; }
  uint64_t nnz() const { return nnz_; }
  const std::string& error() const { return error_; }

 private:
  BinarySetWriter() = default;

  /// Folds the buffered bytes into the checksum and writes them.
  bool FlushBuffer();

  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t num_elements_ = 0;
  uint64_t nnz_ = 0;
  uint64_t checksum_ = binfmt::kFnvOffset;
  std::vector<uint64_t> offsets_;   // absolute; starts at kHeaderBytes
  std::vector<uint32_t> scratch_;   // normalization buffer
  std::vector<uint8_t> buffer_;     // encoded body bytes not yet written
  size_t buffered_ = 0;             // bytes of buffer_ in use
  std::string error_;
  bool finished_ = false;
};

/// Writes `system` to `path` in the binary format. Returns false +
/// *error on IO failure.
bool WriteBinarySetSystem(const SetSystem& system, const std::string& path,
                          std::string* error);

}  // namespace streamcover

#endif  // STREAMCOVER_SETSYSTEM_BINARY_IO_H_
