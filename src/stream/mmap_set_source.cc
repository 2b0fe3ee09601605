#include "stream/mmap_set_source.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

namespace streamcover {

MmapSetSource::Mapping::~Mapping() {
  if (data != nullptr) {
    ::munmap(const_cast<uint8_t*>(data), size);
  }
  if (fd >= 0) ::close(fd);
}

bool MmapSetSource::Mapping::Unchanged() const {
  struct stat st;
  return ::fstat(fd, &st) == 0 && static_cast<uint64_t>(st.st_dev) == dev &&
         static_cast<uint64_t>(st.st_ino) == ino &&
         static_cast<uint64_t>(st.st_size) == size &&
         st.st_mtim.tv_sec == mtime_s && st.st_mtim.tv_nsec == mtime_ns;
}

MmapSetSource::MmapSetSource(std::shared_ptr<const Mapping> map)
    : map_(std::move(map)),
      num_elements_(static_cast<uint32_t>(map_->layout.n)),
      num_sets_(static_cast<uint32_t>(map_->layout.m)) {}

std::optional<MmapSetSource> MmapSetSource::Open(const std::string& path,
                                                 std::string* error) {
  auto fail = [error](const std::string& msg) -> std::optional<MmapSetSource> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  // The Mapping owns the descriptor from here on (~Mapping closes it):
  // every scan fstat()s it to notice a file changed in place.
  auto map = std::make_shared<Mapping>();
  map->path = path;
  map->fd = ::open(path.c_str(), O_RDONLY);
  if (map->fd < 0) return fail("cannot open " + path);
  struct stat st;
  if (::fstat(map->fd, &st) != 0) return fail("cannot stat " + path);
  map->dev = static_cast<uint64_t>(st.st_dev);
  map->ino = static_cast<uint64_t>(st.st_ino);
  map->size = static_cast<uint64_t>(st.st_size);
  map->mtime_s = st.st_mtim.tv_sec;
  map->mtime_ns = st.st_mtim.tv_nsec;
  if (map->size == 0) return fail(path + ": empty file");
  void* mapping =
      ::mmap(nullptr, map->size, PROT_READ, MAP_PRIVATE, map->fd, 0);
  if (mapping == MAP_FAILED) return fail("mmap failed on " + path);
  map->data = static_cast<const uint8_t*>(mapping);
  // Physical scans walk the body front to back; tell the kernel so
  // readahead streams the file instead of demand-faulting page by page.
  ::madvise(mapping, map->size, MADV_SEQUENTIAL);

  std::string layout_error;
  if (!binfmt::ValidateBinaryLayout(map->data, map->size, &map->layout,
                                    &layout_error)) {
    return fail(path + ": " + layout_error);  // ~Mapping unmaps
  }
  map->chunks = binfmt::BuildChunkPlan(map->layout, kDefaultScanChunkBytes);
  return MmapSetSource(std::move(map));
}

std::unique_ptr<SetSource> MmapSetSource::Fork(std::string* error) const {
  (void)error;
  // Shares map_; everything mutable (decoder, sticky error, scan
  // counter, cancel hook) starts fresh in the fork.
  return std::unique_ptr<SetSource>(new MmapSetSource(map_));
}

PipelinedScanner& MmapSetSource::EnsureScanner() {
  if (scanner_ == nullptr || scanner_threads_ != scan_threads()) {
    scanner_ = std::make_unique<PipelinedScanner>(
        map_->data, num_elements_, map_->layout,
        std::span<const binfmt::ScanChunk>(map_->chunks), scan_threads());
    scanner_threads_ = scan_threads();
  }
  return *scanner_;
}

bool MmapSetSource::ScanBatches(const SetBatchVisitor& visit) {
  if (!BeginScan()) return false;  // sticky: the file is already bad
  // A page past a truncated file's end would raise SIGBUS, and a file
  // rewritten in place would void the decoder's clean-chunk flags.
  if (!map_->Unchanged()) {
    error_ = map_->path + ": changed on disk since it was opened";
    return false;
  }
  std::string error;
  if (!EnsureScanner().Run(map_->path, visit, cancel_token(), &error,
                           scan_filter())) {
    error_ = error;  // "path: corrupt set S: msg", or the deadline code
    return false;
  }
  return true;
}

bool MmapSetSource::VerifyChecksum(std::string* error) const {
  const binfmt::BinaryLayout& layout = map_->layout;
  const uint8_t* body = map_->data + binfmt::kHeaderBytes;
  if (binfmt::Fnv1a(body, layout.footer_offset - binfmt::kHeaderBytes,
                    binfmt::kFnvOffset) == layout.checksum) {
    return true;
  }
  if (error != nullptr) {
    *error = map_->path + ": body checksum mismatch (corrupt file)";
  }
  return false;
}

std::unique_ptr<SetSource> OpenDiskSetSource(const std::string& path,
                                             std::string* error) {
  // Magic sniffing is authoritative: a file announcing the binary magic
  // is opened as binary, full stop. When that Open fails, the binary
  // validator's diagnostic is surfaced verbatim — never replaced by a
  // text-parser fallback whose generic "bad magic" wording would point
  // away from the real corruption (a valid-magic / corrupt-footer file
  // pins this in mmap_source_test).
  if (IsBinarySetSystemFile(path)) {
    std::string open_error;
    std::optional<MmapSetSource> source =
        MmapSetSource::Open(path, &open_error);
    if (!source.has_value()) {
      if (error != nullptr) *error = open_error;
      return nullptr;
    }
    return std::make_unique<MmapSetSource>(std::move(*source));
  }
  std::optional<FileSetSource> source = FileSetSource::Open(path, error);
  if (!source.has_value()) return nullptr;
  return std::make_unique<FileSetSource>(std::move(*source));
}

std::optional<SetSystem> LoadAnySetSystemFromFile(const std::string& path,
                                                  std::string* error) {
  std::unique_ptr<SetSource> source = OpenDiskSetSource(path, error);
  if (source == nullptr) return std::nullopt;
  const auto* mapped = dynamic_cast<const MmapSetSource*>(source.get());
  if (mapped != nullptr && !mapped->VerifyChecksum(error)) {
    return std::nullopt;
  }
  SetSystem::Builder builder(source->num_elements());
  if (!source->ScanBatches([&builder](std::span<const SetView> sets) {
        for (const SetView& set : sets) builder.AddSet(set.elems);
      })) {
    if (error != nullptr) *error = source->error();
    return std::nullopt;
  }
  return std::move(builder).Build();
}

}  // namespace streamcover
