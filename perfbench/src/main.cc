// perfbench — the end-to-end benchmark driver.
//
//   perfbench --workload iter_disk|sieve_disk|serve_mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a host block, the CPU share the hypervisor stole during the
// run, the workload's metrics by name and unit and, for traced runs,
// each layer's self time next to its counters; then, as the last line,
// the result object {"correct", "attempted", "failed", "metrics"}.
// Traced runs also write their spans as Chrome trace-event JSON to
// DIR/<workload>-seed<N>.trace.json. Exits 0 only when every output
// checked out.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "flags.h"
#include "host.h"
#include "metrics.h"
#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using streamcover::JsonValue;

void PrintMetrics(const RunOutcome& outcome, bool trace) {
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    auto it = outcome.metrics.find(spec.name);
    if (it == outcome.metrics.end()) continue;
    std::printf("  %-24s %16.6f %s\n", spec.name, it->second, spec.unit);
  }
  std::printf("  %-24s %16.6f ratio (%llu of %llu operations)\n", "fail_frac",
              outcome.attempted == 0
                  ? 1.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
}

void PrintSelfTimes(const TraceRecorder& trace) {
  const auto self = trace.SelfSecondsByLayer();
  const auto counts = trace.CountByLayer();
  std::printf("  %-10s %12s %10s\n", "layer", "self_s", "spans");
  for (const auto& [layer, seconds] : self) {
    std::printf("  %-10s %12.6f %10llu\n", layer.c_str(), seconds,
                static_cast<unsigned long long>(counts.at(layer)));
  }
}

bool WriteJson(const std::string& path, const JsonValue& doc) {
  std::ofstream out(path);
  out << doc.Dump(0) << "\n";
  return static_cast<bool>(out);
}

int Main(const std::vector<std::string>& args) {
  std::string error;
  std::optional<BenchFlags> flags = ParseFlags(args, &error);
  if (!flags.has_value()) {
    std::fprintf(stderr, "perfbench: %s\n%s\n", error.c_str(), Usage().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(flags->out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 flags->out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const JsonValue host = HostBlock();
  std::printf("host %s\n", host.Dump(0).c_str());
  if (!host.At("comparable").AsBool()) {
    std::fprintf(stderr,
                 "perfbench: warning: fewer than 4 CPUs or an unoptimized "
                 "build; these numbers are not comparable with a 4-core "
                 "optimized run\n");
  }

  TraceRecorder recorder;
  TraceRecorder* trace = flags->trace ? &recorder : nullptr;
  const CpuTicks ticks_before = ReadCpuTicks();
  const RunOutcome outcome = flags->workload == "serve_mix"
                                 ? RunServeWorkload(*flags, trace)
                                 : RunDiskWorkload(*flags, trace);
  // Time the hypervisor gave to other guests: on a shared host this is
  // what makes runs of the same code disagree.
  const double steal = StealFraction(ticks_before, ReadCpuTicks());
  std::printf("cpu steal during the run: %.2f%%\n", 100.0 * steal);
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  }
  std::printf("%s metrics (%s):\n", flags->workload.c_str(),
              flags->trace ? "per layer, traced" : "end to end, untraced");
  PrintMetrics(outcome, flags->trace);

  const std::string stem = flags->out_dir + "/" + flags->workload + "-seed" +
                           std::to_string(flags->seed);
  if (trace != nullptr) {
    PrintSelfTimes(recorder);
    JsonValue metadata = JsonValue::Object();
    metadata.Set("workload", flags->workload);
    metadata.Set("seed", flags->seed);
    metadata.Set("host", host);
    const std::string trace_path = stem + ".trace.json";
    if (WriteJson(trace_path, recorder.ToChromeJson(std::move(metadata)))) {
      std::printf("wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
  }

  JsonValue line;
  if (!ResultLine(outcome, flags->trace, &line, &error)) {
    std::fprintf(stderr, "perfbench: no result: %s\n", error.c_str());
    return 1;
  }
  JsonValue report = JsonValue::Object();
  report.Set("host", host);
  report.Set("workload", flags->workload);
  report.Set("seed", flags->seed);
  report.Set("seconds", static_cast<uint64_t>(flags->seconds));
  report.Set("trace", flags->trace);
  report.Set("cpu_steal_frac", steal);
  report.Set("result", line);
  WriteJson(stem + (flags->trace ? ".traced" : ".untraced") + ".report.json",
            report);
  std::cout << line.Dump(0) << std::endl;
  return line.At("correct").AsBool() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(std::vector<std::string>(argv + 1, argv + argc));
}
