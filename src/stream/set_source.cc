#include "stream/set_source.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "util/check.h"

namespace streamcover {

std::span<const SetView> SetBatch::MakeViews() {
  views.clear();
  views.reserve(num_sets());
  for (size_t i = 0; i < num_sets(); ++i) {
    views.push_back(SetView{
        ids.empty() ? first_set + static_cast<uint32_t>(i) : ids[i],
        std::span<const uint32_t>(elems.data() + offsets[i],
                                  offsets[i + 1] - offsets[i])});
  }
  return views;
}

std::unique_ptr<SetSource> SetSource::Fork(std::string* error) const {
  if (error != nullptr) *error = "source does not support forking";
  return nullptr;
}

bool SetSource::Scan(const SetVisitor& visit) {
  return ScanBatches([&visit](std::span<const SetView> sets) {
    for (const SetView& set : sets) visit(set);
  });
}

InMemorySetSource::InMemorySetSource(const SetSystem* system)
    : system_(system) {
  SC_CHECK(system != nullptr);
}

uint32_t InMemorySetSource::num_elements() const {
  return system_->num_elements();
}

uint32_t InMemorySetSource::num_sets() const { return system_->num_sets(); }

uint32_t InMemorySetSource::max_set_size() const {
  return system_->max_set_size();
}

bool InMemorySetSource::ScanBatches(const SetBatchVisitor& visit) {
  if (!BeginScan()) return false;  // sticky (a fired deadline stays fired)
  const uint32_t m = system_->num_sets();
  uint32_t s = 0;
  while (s < m) {
    if (CancelFired()) return false;
    views_.clear();
    size_t words = 0;
    while (s < m && !BatchFull(views_.size(), words)) {
      views_.push_back(system_->GetView(s++));
      words += views_.back().size();
    }
    visit(views_);
  }
  return true;
}

std::unique_ptr<SetSource> InMemorySetSource::Fork(
    std::string* error) const {
  (void)error;
  return std::make_unique<InMemorySetSource>(system_);
}

FileSetSource::FileSetSource(std::string path, uint32_t n, uint32_t m)
    : path_(std::move(path)), num_elements_(n), num_sets_(m) {}

std::optional<FileSetSource> FileSetSource::Open(const std::string& path,
                                                 std::string* error) {
  auto fail = [error](const std::string& msg) -> std::optional<FileSetSource> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open " + path);
  std::string magic;
  uint64_t n = 0, m = 0;
  if (!(in >> magic) || magic != "setcover") {
    return fail("bad magic in " + path);
  }
  if (!(in >> n >> m)) return fail("missing n/m header in " + path);
  if (n > (1ULL << 31) || m > (1ULL << 31)) return fail("n/m out of range");
  FileSetSource source(path, static_cast<uint32_t>(n),
                       static_cast<uint32_t>(m));
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  if (end > 0) source.file_bytes_ = static_cast<uint64_t>(end);
  return source;
}

std::unique_ptr<SetSource> FileSetSource::Fork(std::string* error) const {
  std::optional<FileSetSource> fork = Open(path_, error);
  if (!fork.has_value()) return nullptr;
  if (fork->num_elements_ != num_elements_ || fork->num_sets_ != num_sets_) {
    if (error != nullptr) {
      *error = path_ + ": dimensions changed since Open";
    }
    return nullptr;
  }
  return std::make_unique<FileSetSource>(std::move(*fork));
}

bool FileSetSource::ScanBatches(const SetBatchVisitor& visit) {
  if (!BeginScan()) return false;  // sticky: the file is already bad
  auto fail = [this](const std::string& msg) {
    error_ = path_ + ": " + msg;
    return false;
  };
  std::ifstream in(path_);
  // Open validated the header, but the file can vanish or be truncated
  // between passes — report that, don't abort.
  if (!in) return fail("cannot reopen");
  // Advise sequential readahead on the file's page cache before the
  // front-to-back parse. fadvise keys on the inode's cache, not the
  // descriptor, so a transient fd covers the ifstream's reads too; a
  // failure (exotic filesystems) only loses the hint.
  if (const int fd = ::open(path_.c_str(), O_RDONLY); fd >= 0) {
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL);
    ::close(fd);
  }
  std::string magic;
  uint64_t n = 0, m = 0;
  if (!(in >> magic >> n >> m) || magic != "setcover") {
    return fail("header changed since Open");
  }
  std::vector<uint32_t>& elems = batch_.elems;
  uint32_t s = 0;
  while (s < num_sets_) {
    if (CancelFired()) return false;
    batch_.Reset(s);
    for (; s < num_sets_ && !BatchFull(batch_.num_sets(), elems.size());
         ++s) {
      uint64_t size = 0;
      if (!(in >> size)) {
        return fail("truncated set header at set " + std::to_string(s));
      }
      if (size > num_elements_) {
        return fail("set " + std::to_string(s) + " larger than universe");
      }
      // Elements are appended as they are read, never reserved from the
      // claimed size: a lying size costs only the bytes actually there.
      const size_t begin = elems.size();
      bool sorted_unique = true;
      for (uint64_t i = 0; i < size; ++i) {
        uint64_t e = 0;
        if (!(in >> e)) {
          return fail("truncated set body at set " + std::to_string(s));
        }
        if (e >= num_elements_) {
          return fail("element id " + std::to_string(e) +
                      " out of range in set " + std::to_string(s));
        }
        if (elems.size() > begin && e <= elems.back()) sorted_unique = false;
        elems.push_back(static_cast<uint32_t>(e));
      }
      // Dispatched element spans are sorted and duplicate-free everywhere
      // in the library: the CSR builder enforces it in memory
      // (SetSystem::Builder::AddSet), and the word-parallel coverage
      // kernels (util/cover_kernels.h) rely on it. Normalize a malformed
      // file line here, as the builder would; well-formed files pay only
      // the monotonicity check above.
      if (!sorted_unique) {
        const auto first = elems.begin() + static_cast<ptrdiff_t>(begin);
        std::sort(first, elems.end());
        elems.erase(std::unique(first, elems.end()), elems.end());
      }
      batch_.EndSet();
    }
    visit(batch_.MakeViews());
  }
  return true;
}

}  // namespace streamcover
