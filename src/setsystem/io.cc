#include "setsystem/io.h"

#include <charconv>
#include <fstream>

namespace streamcover {

TextSetWriter::TextSetWriter(std::ostream& os, uint32_t num_elements,
                             uint32_t num_sets)
    : os_(&os), num_elements_(num_elements), declared_sets_(num_sets) {
  *os_ << "setcover " << num_elements << ' ' << num_sets << '\n';
}

bool TextSetWriter::AddSet(std::span<const uint32_t> elements) {
  if (!error_.empty()) return false;
  elements = SortedUnique(elements, scratch_);
  if (!elements.empty() && elements.back() >= num_elements_) {
    error_ = "element id " + std::to_string(elements.back()) +
             " out of range in set " + std::to_string(sets_);
    return false;
  }
  // One line per set: the size, then " id" per element; a decimal
  // uint64 takes at most 20 characters.
  const size_t worst = 21 * (elements.size() + 1) + 1;
  if (line_.size() < worst) line_.resize(worst);
  char* out = line_.data();
  out = std::to_chars(out, out + 20, elements.size()).ptr;
  for (uint32_t e : elements) {
    *out++ = ' ';
    out = std::to_chars(out, out + 10, e).ptr;
  }
  *out++ = '\n';
  os_->write(line_.data(), out - line_.data());
  ++sets_;
  nnz_ += elements.size();
  if (!os_->good()) error_ = "write failed";
  return error_.empty();
}

bool TextSetWriter::Finish(std::string* error) {
  if (error_.empty() && sets_ != declared_sets_) {
    error_ = "wrote " + std::to_string(sets_) + " sets, header says " +
             std::to_string(declared_sets_);
  }
  if (error_.empty() && !os_->flush().good()) error_ = "write failed";
  if (error != nullptr) *error = error_;
  return error_.empty();
}

void WriteSetSystem(const SetSystem& system, std::ostream& os) {
  TextSetWriter writer(os, system.num_elements(), system.num_sets());
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    writer.AddSet(system.GetSet(s));
  }
}

bool SaveSetSystemToFile(const SetSystem& system, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteSetSystem(system, out);
  return static_cast<bool>(out.flush());
}

}  // namespace streamcover
