#include "setsystem/binary_io.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "setsystem/io.h"
#include "util/check.h"

namespace streamcover {

namespace binfmt {

uint64_t Fnv1a(const uint8_t* bytes, size_t len, uint64_t state) {
  for (size_t i = 0; i < len; ++i) {
    state ^= bytes[i];
    state *= 0x100000001b3ULL;
  }
  return state;
}

namespace {

// Fixed-width fields are memcpy'd: the buffers they live in (file bytes,
// mmap pages) have no alignment guarantee and a cast-and-load would be
// UB. Little-endian layout matches every target we build for.
void PutU32(uint32_t v, uint8_t* out) { std::memcpy(out, &v, 4); }
void PutU64(uint64_t v, uint8_t* out) { std::memcpy(out, &v, 8); }
uint32_t GetU32(const uint8_t* in) {
  uint32_t v;
  std::memcpy(&v, in, 4);
  return v;
}
uint64_t GetU64(const uint8_t* in) {
  uint64_t v;
  std::memcpy(&v, in, 8);
  return v;
}

/// Writes the LEB128 encoding of `value` (at most 10 bytes) at `out`;
/// returns its end.
uint8_t* PutVarint(uint64_t value, uint8_t* out) {
  while (value >= 0x80) {
    *out++ = static_cast<uint8_t>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

}  // namespace

uint64_t BinaryLayout::SetOffset(uint64_t s) const {
  return GetU64(footer + s * 8);
}

std::vector<ScanChunk> BuildChunkPlan(const BinaryLayout& layout,
                                      uint64_t target_bytes) {
  std::vector<ScanChunk> chunks;
  const uint64_t m = layout.m;
  if (m == 0) return chunks;
  uint64_t first = 0;
  uint64_t begin = layout.SetOffset(0);
  for (uint64_t s = 1; s <= m; ++s) {
    const uint64_t offset = layout.SetOffset(s);
    if (s == m || (target_bytes > 0 && offset - begin >= target_bytes)) {
      ScanChunk chunk;
      chunk.first_set = static_cast<uint32_t>(first);
      chunk.set_count = static_cast<uint32_t>(s - first);
      chunk.byte_begin = begin;
      chunk.byte_end = offset;
      chunks.push_back(chunk);
      first = s;
      begin = offset;
    }
  }
  return chunks;
}

bool ValidateBinaryLayout(const uint8_t* data, uint64_t size,
                          BinaryLayout* layout, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (size < kHeaderBytes) return fail("file shorter than header");
  if (std::memcmp(data, kMagic, 8) != 0) return fail("bad magic");
  if (GetU32(data + 8) != kVersion) {
    return fail("unsupported version " + std::to_string(GetU32(data + 8)));
  }
  if (GetU32(data + 12) != kHeaderBytes) {
    return fail("unexpected header size");
  }
  layout->n = GetU64(data + 16);
  layout->m = GetU64(data + 24);
  layout->nnz = GetU64(data + 32);
  layout->footer_offset = GetU64(data + 40);
  layout->checksum = GetU64(data + 48);
  if (layout->n > kMaxDimension || layout->m > kMaxDimension) {
    return fail("n/m out of range");
  }
  const uint64_t footer_bytes = (layout->m + 1) * 8;
  if (layout->footer_offset < kHeaderBytes || layout->footer_offset > size ||
      size - layout->footer_offset != footer_bytes + 8) {
    return fail("truncated file: size does not match footer offset");
  }
  if (std::memcmp(data + size - 8, kEndMagic, 8) != 0) {
    return fail("missing end magic (truncated or corrupt file)");
  }
  layout->footer = data + layout->footer_offset;
  // Offsets must start at the body, end at the footer, and be
  // monotone — this pins every set's extent without decoding the body.
  if (layout->SetOffset(0) != kHeaderBytes) {
    return fail("corrupt footer: first offset");
  }
  if (layout->SetOffset(layout->m) != layout->footer_offset) {
    return fail("corrupt footer: last offset");
  }
  uint64_t widest = 0;
  for (uint64_t s = 0; s < layout->m; ++s) {
    const uint64_t begin = layout->SetOffset(s);
    const uint64_t end = layout->SetOffset(s + 1);
    if (begin > end) return fail("corrupt footer: offsets not monotone");
    widest = std::max(widest, end - begin);
  }
  layout->max_set_size = std::min(layout->n, widest > 0 ? widest - 1 : 0);
  return true;
}

void AppendVarint(uint64_t value, std::string& out) {
  uint8_t bytes[10];
  const uint8_t* end = PutVarint(value, bytes);
  out.append(reinterpret_cast<const char*>(bytes), end - bytes);
}

std::optional<uint64_t> DecodeVarint(const uint8_t** cursor,
                                     const uint8_t* end) {
  uint64_t value = 0;
  int shift = 0;
  const uint8_t* p = *cursor;
  while (p < end) {
    uint8_t byte = *p++;
    if (shift == 63 && byte > 1) return std::nullopt;  // overflows 64 bits
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *cursor = p;
      return value;
    }
    shift += 7;
    if (shift > 63) return std::nullopt;
  }
  return std::nullopt;  // ran off the buffer mid-varint
}

}  // namespace binfmt

namespace {

using binfmt::kHeaderBytes;

/// Body bytes the writer encodes before one fwrite.
constexpr size_t kWriteBufferBytes = size_t{1} << 20;

void EncodeHeader(uint64_t n, uint64_t m, uint64_t nnz,
                  uint64_t footer_offset, uint64_t checksum,
                  uint8_t out[binfmt::kHeaderBytes]) {
  std::memset(out, 0, kHeaderBytes);
  std::memcpy(out, binfmt::kMagic, 8);
  binfmt::PutU32(binfmt::kVersion, out + 8);
  binfmt::PutU32(static_cast<uint32_t>(kHeaderBytes), out + 12);
  binfmt::PutU64(n, out + 16);
  binfmt::PutU64(m, out + 24);
  binfmt::PutU64(nnz, out + 32);
  binfmt::PutU64(footer_offset, out + 40);
  binfmt::PutU64(checksum, out + 48);
}

}  // namespace

bool IsBinarySetSystemFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[8];
  bool is_binary = std::fread(magic, 1, 8, f) == 8 &&
                   std::memcmp(magic, binfmt::kMagic, 8) == 0;
  std::fclose(f);
  return is_binary;
}

std::optional<BinarySetWriter> BinarySetWriter::Create(
    const std::string& path, uint64_t num_elements, std::string* error) {
  auto fail = [error](const std::string& msg) -> std::optional<BinarySetWriter> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  if (num_elements > binfmt::kMaxDimension) {
    return fail("num_elements out of range");
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return fail("cannot open " + path + " for writing");
  // Reserve the header slot; Finish patches it with the real counts.
  uint8_t header[kHeaderBytes];
  EncodeHeader(num_elements, 0, 0, 0, 0, header);
  if (std::fwrite(header, 1, kHeaderBytes, f) != kHeaderBytes) {
    std::fclose(f);
    return fail("write failed on " + path);
  }
  BinarySetWriter writer;
  writer.file_ = f;
  writer.path_ = path;
  writer.num_elements_ = num_elements;
  writer.offsets_.push_back(kHeaderBytes);
  writer.buffer_.resize(kWriteBufferBytes);
  return writer;
}

BinarySetWriter::BinarySetWriter(BinarySetWriter&& other) noexcept {
  *this = std::move(other);
}

BinarySetWriter& BinarySetWriter::operator=(BinarySetWriter&& other) noexcept {
  if (this == &other) return *this;
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::exchange(other.file_, nullptr);
  path_ = std::move(other.path_);
  num_elements_ = other.num_elements_;
  nnz_ = other.nnz_;
  checksum_ = other.checksum_;
  offsets_ = std::move(other.offsets_);
  scratch_ = std::move(other.scratch_);
  buffer_ = std::move(other.buffer_);
  buffered_ = std::exchange(other.buffered_, 0);
  error_ = std::move(other.error_);
  finished_ = other.finished_;
  return *this;
}

BinarySetWriter::~BinarySetWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

bool BinarySetWriter::AddSet(std::span<const uint32_t> elements) {
  if (!error_.empty()) return false;
  SC_CHECK(!finished_);  // AddSet after Finish is a programming error
  // Generated and decoded sets arrive strictly increasing; only other
  // input pays for the normalizing copy.
  if (std::adjacent_find(elements.begin(), elements.end(),
                         std::greater_equal<uint32_t>()) != elements.end()) {
    scratch_.assign(elements.begin(), elements.end());
    std::sort(scratch_.begin(), scratch_.end());
    scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                   scratch_.end());
    elements = scratch_;
  }
  if (!elements.empty() && elements.back() >= num_elements_) {
    error_ = "element id " + std::to_string(elements.back()) +
             " out of range in set " + std::to_string(num_sets());
    return false;
  }
  // A size varint takes at most 10 bytes and an element delta 5.
  const size_t worst = 10 + 5 * elements.size();
  if (buffer_.size() - buffered_ < worst) {
    if (!FlushBuffer()) return false;
    if (buffer_.size() < worst) buffer_.resize(worst);
  }
  uint8_t* const begin = buffer_.data() + buffered_;
  uint8_t* out = binfmt::PutVarint(elements.size(), begin);
  uint32_t prev = 0;
  for (size_t i = 0; i < elements.size(); ++i) {
    // Strictly increasing, so the -1 never wraps.
    out = binfmt::PutVarint(i == 0 ? elements[0] : elements[i] - prev - 1,
                            out);
    prev = elements[i];
  }
  const size_t bytes = static_cast<size_t>(out - begin);
  buffered_ += bytes;
  nnz_ += elements.size();
  offsets_.push_back(offsets_.back() + bytes);
  return true;
}

bool BinarySetWriter::FlushBuffer() {
  if (buffered_ == 0) return true;
  checksum_ = binfmt::Fnv1a(buffer_.data(), buffered_, checksum_);
  const bool ok = std::fwrite(buffer_.data(), 1, buffered_, file_) == buffered_;
  buffered_ = 0;
  if (!ok) error_ = "write failed on " + path_;
  return ok;
}

bool BinarySetWriter::Finish(std::string* error) {
  auto fail = [this, error](const std::string& msg) {
    error_ = msg;
    if (error != nullptr) *error = msg;
    return false;
  };
  SC_CHECK(!finished_);  // Finish called twice
  finished_ = true;
  if (!error_.empty()) {
    if (error != nullptr) *error = error_;
    return false;
  }
  if (num_sets() > binfmt::kMaxDimension) return fail("too many sets");
  if (!FlushBuffer()) return fail(error_);
  const uint64_t footer_offset = offsets_.back();
  // The vector's uint64s are already little-endian in memory on every
  // supported target; write them in one shot.
  if (std::fwrite(offsets_.data(), sizeof(uint64_t), offsets_.size(),
                  file_) != offsets_.size()) {
    return fail("write failed on " + path_);
  }
  if (std::fwrite(binfmt::kEndMagic, 1, 8, file_) != 8) {
    return fail("write failed on " + path_);
  }
  uint8_t header[kHeaderBytes];
  EncodeHeader(num_elements_, num_sets(), nnz_, footer_offset, checksum_,
               header);
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(header, 1, kHeaderBytes, file_) != kHeaderBytes) {
    return fail("header patch failed on " + path_);
  }
  std::FILE* f = std::exchange(file_, nullptr);
  if (std::fclose(f) != 0) return fail("close failed on " + path_);
  return true;
}

bool WriteBinarySetSystem(const SetSystem& system, const std::string& path,
                          std::string* error) {
  auto writer = BinarySetWriter::Create(path, system.num_elements(), error);
  if (!writer.has_value()) return false;
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    if (!writer->AddSet(system.GetSet(s))) {
      if (error != nullptr) *error = writer->error();
      return false;
    }
  }
  return writer->Finish(error);
}

std::optional<SetSystem> LoadBinarySetSystemFromFile(const std::string& path,
                                                     std::string* error) {
  auto fail = [error](const std::string& msg) -> std::optional<SetSystem> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (file_size < 0) {
    std::fclose(f);
    return fail("cannot stat " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(file_size));
  size_t read = bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) return fail("short read on " + path);

  binfmt::BinaryLayout layout;
  if (!binfmt::ValidateBinaryLayout(bytes.data(), bytes.size(), &layout,
                                    error)) {
    return std::nullopt;
  }
  const uint8_t* body = bytes.data() + kHeaderBytes;
  const uint64_t body_len = layout.footer_offset - kHeaderBytes;
  if (binfmt::Fnv1a(body, body_len, binfmt::kFnvOffset) != layout.checksum) {
    return fail("body checksum mismatch (corrupt file)");
  }

  SetSystem::Builder builder(static_cast<uint32_t>(layout.n));
  std::vector<uint32_t> elems;
  for (uint64_t s = 0; s < layout.m; ++s) {
    const uint8_t* cursor = bytes.data() + layout.SetOffset(s);
    const uint8_t* end = bytes.data() + layout.SetOffset(s + 1);
    auto size = binfmt::DecodeVarint(&cursor, end);
    if (!size.has_value() || *size > layout.n) {
      return fail("corrupt set " + std::to_string(s) + ": bad size");
    }
    elems.clear();
    elems.reserve(*size);
    uint64_t prev = 0;
    for (uint64_t i = 0; i < *size; ++i) {
      auto delta = binfmt::DecodeVarint(&cursor, end);
      if (!delta.has_value()) {
        return fail("corrupt set " + std::to_string(s) + ": truncated body");
      }
      // No delta >= n is valid, and one near 2^64 would wrap the sum
      // below to a small id.
      uint64_t e = (i == 0) ? *delta : prev + *delta + 1;
      if (*delta >= layout.n || e >= layout.n) {
        return fail("corrupt set " + std::to_string(s) +
                    ": element id out of range");
      }
      elems.push_back(static_cast<uint32_t>(e));
      prev = e;
    }
    if (cursor != end) {
      return fail("corrupt set " + std::to_string(s) + ": trailing bytes");
    }
    builder.AddSet(std::span<const uint32_t>(elems));
  }
  return std::move(builder).Build();
}

std::optional<SetSystem> LoadAnySetSystemFromFile(const std::string& path,
                                                  std::string* error) {
  if (IsBinarySetSystemFile(path)) {
    return LoadBinarySetSystemFromFile(path, error);
  }
  return LoadSetSystemFromFile(path, error);
}

}  // namespace streamcover
