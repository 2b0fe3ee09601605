#include "flags.h"

#include <charconv>
#include <map>

namespace perfbench {
namespace {

/// Whole decimal number without sign, spaces or trailing characters.
std::optional<uint64_t> ParseUnsigned(const std::string& text) {
  if (text.empty() || text.size() > 20) return std::nullopt;
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

bool KnownWorkload(const std::string& name) {
  for (const char* known : kWorkloads) {
    if (name == known) return true;
  }
  return false;
}

}  // namespace

std::string Usage() {
  std::string usage =
      "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
      "[--out-dir DIR]\n  workloads:";
  for (const char* name : kWorkloads) usage += std::string(" ") + name;
  return usage;
}

std::optional<BenchFlags> ParseFlags(std::span<const std::string> args,
                                     std::string* error) {
  auto fail = [error](std::string message) -> std::optional<BenchFlags> {
    *error = std::move(message);
    return std::nullopt;
  };
  std::map<std::string, std::string> values;
  for (size_t i = 0; i < args.size(); i += 2) {
    const std::string& flag = args[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--out-dir") {
      return fail("unknown flag '" + flag + "'");
    }
    if (i + 1 >= args.size()) return fail("flag " + flag + " needs a value");
    if (!values.emplace(flag, args[i + 1]).second) {
      return fail("flag " + flag + " given twice");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (values.count(required) == 0) {
      return fail(std::string("missing required flag ") + required);
    }
  }

  BenchFlags flags;
  flags.workload = values["--workload"];
  if (!KnownWorkload(flags.workload)) {
    return fail("unknown workload '" + flags.workload + "'");
  }
  std::optional<uint64_t> seed = ParseUnsigned(values["--seed"]);
  if (!seed.has_value()) return fail("--seed must be a whole number >= 0");
  flags.seed = *seed;
  std::optional<uint64_t> seconds = ParseUnsigned(values["--seconds"]);
  if (!seconds.has_value() || *seconds < 1 || *seconds > kMaxSeconds) {
    return fail("--seconds must be a whole number in [1, " +
                std::to_string(kMaxSeconds) + "]");
  }
  flags.seconds = static_cast<uint32_t>(*seconds);
  const std::string& trace = values["--trace"];
  if (trace != "0" && trace != "1") return fail("--trace must be 0 or 1");
  flags.trace = trace == "1";
  if (values.count("--out-dir") != 0) {
    if (values["--out-dir"].empty()) return fail("--out-dir must not be empty");
    flags.out_dir = values["--out-dir"];
  }
  return flags;
}

}  // namespace perfbench
