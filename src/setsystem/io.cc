#include "setsystem/io.h"

#include <fstream>

namespace streamcover {

void WriteSetSystem(const SetSystem& system, std::ostream& os) {
  os << "setcover " << system.num_elements() << ' ' << system.num_sets()
     << '\n';
  for (uint32_t s = 0; s < system.num_sets(); ++s) {
    auto elems = system.GetSet(s);
    os << elems.size();
    for (uint32_t e : elems) os << ' ' << e;
    os << '\n';
  }
}

std::optional<SetSystem> ReadSetSystem(std::istream& is, std::string* error) {
  auto fail = [error](const std::string& msg) -> std::optional<SetSystem> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  std::string magic;
  if (!(is >> magic)) return fail("empty input");
  if (magic != "setcover") return fail("bad magic: " + magic);
  uint64_t n = 0, m = 0;
  if (!(is >> n >> m)) return fail("missing n/m header");
  if (n > (1ULL << 31) || m > (1ULL << 31)) return fail("n/m out of range");
  SetSystem::Builder builder(static_cast<uint32_t>(n));
  std::vector<uint32_t> elems;  // reused across sets; CSR copies from it
  for (uint64_t s = 0; s < m; ++s) {
    uint64_t size = 0;
    if (!(is >> size)) return fail("truncated set header");
    if (size > n) return fail("set larger than universe");
    elems.clear();  // no reserve from `size`: the header may lie
    for (uint64_t i = 0; i < size; ++i) {
      uint64_t e = 0;
      if (!(is >> e)) return fail("truncated set body");
      if (e >= n) return fail("element id out of range");
      elems.push_back(static_cast<uint32_t>(e));
    }
    builder.AddSet(std::span<const uint32_t>(elems));
  }
  return std::move(builder).Build();
}

bool SaveSetSystemToFile(const SetSystem& system, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  WriteSetSystem(system, out);
  return static_cast<bool>(out);
}

std::optional<SetSystem> LoadSetSystemFromFile(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  return ReadSetSystem(in, error);
}

}  // namespace streamcover
