// streamcover_cli — command-line front end for the library.
//
// Subcommands:
//   generate --type planted|sparse|zipf --n N --m M --k K [--s S]
//            [--seed SEED] --out FILE [--format text|binary]
//       Generates in memory, then writes the instance in the text
//       format of setsystem/io.h or the binary CSR format of
//       setsystem/binary_io.h.
//   generate-disk --type planted|sparse|zipf --n N --m M --k K [--s S]
//            [--alpha A] [--seed SEED] --out FILE [--format binary|text]
//       Streams the instance to disk set by set (O(n + m) memory) via
//       setsystem/stream_generators.h — the way to produce paper-scale
//       multi-GB files. Defaults to the binary format.
//   convert  --in FILE --out FILE [--format binary|text]
//       Streams an instance file (either format, sniffed by magic)
//       into the other format in one pass without materializing it.
//   stats    --in FILE
//       Prints n, m, nnz, set-size distribution, the dense-eligible set
//       count, and the SIMD tier the dense kernels run on this host.
//       Accepts both formats.
//   solve    (--in FILE | --workload NAME) --algo ALGO [--n N --m M
//            --k K] [--delta D] [--c C] [--p P] [--seed SEED] [--coverage F]
//            [--budget B] [--threads N] [--early-exit] [--from-disk]
//       ALGO: any name from `list-solvers` (plus the legacy aliases
//       store-all / iterative / progressive / threshold); --workload
//       takes any name from `list-workloads` and generates the
//       instance in-process. Unknown solver or workload names fail
//       with the full list of registered alternatives. The input
//       becomes an Instance and dispatch goes through
//       RunSolver(name, Instance&, options). --from-disk keeps the
//       repository on disk — text files are re-parsed once per
//       *physical* scan (FileSetSource); binary files are mmapped and
//       decoded in place (MmapSetSource), picked by magic sniffing;
//       --threads N (0 to 256) fans multiplexed consumers out
//       over N workers of the shared-scan PassScheduler.
//       --c is the sample-size constant (default RunOptions' 0.5, the
//       same as serve). Prints the run's record (core/run_record.h) as
//       one key=value line, then covered=C/N.
//   list-solvers  (also: --list_solvers)
//       Prints every registered solver with its kind and bounds.
//   list-workloads
//       Prints every registered workload family with its kind.
//   sweep    [--solvers a,b,c] [--workloads x,y,z] [--seeds S]
//            [--trials T] [--n N --m M --k K] [--delta D] [--c C]
//            [--threads N] [--early-exit] [--json FILE]
//       Executes the (solvers × workloads × seeds × trials) grid
//       through WorkloadRegistry/RunPlan, prints the summary table
//       (passes vs sequential vs physical scans), and optionally
//       writes the RunReport JSON (schema streamcover.run_report.v6).
//   generate-geom --type disk|rect|tri|figure12 --n N --m M --k K
//            [--seed SEED] --out FILE
//       Writes a geometric instance (geometry/geom_io.h format).
//   solve-geom --in FILE [--delta D] [--c C] [--seed SEED]
//       Runs algGeomSC (Theorem 4.6) on a geometric instance file, over
//       its range space; --c is the sample-size constant (default
//       0.5). Prints the record line as solve does, then
//       feasible=yes|no. `solve --workload geom_disks --algo geom` runs
//       the same solver on a generated instance and also takes
//       --threads.
//   selftest
//       Exercises generate -> stats -> solve -> sweep (abstract and
//       geometric) in a temp dir (used by ctest).
//
// Exit code 0 on success; 1 on usage or runtime errors. A flag the
// command does not read (`--dleta`, a stale `--kernel`) or a stray
// positional argument is a usage error, reported before anything runs.

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "streamcover.h"
#include "util/json.h"
#include "util/timer.h"

namespace streamcover {
namespace {

// -----------------------------------------------------------------------
// SIGINT/SIGTERM for the long-running commands (generate-disk, sweep):
// the handler only fires a CancelToken (one relaxed atomic store —
// async-signal-safe); the command's inner loop polls it, stops cleanly,
// and removes any partially written output instead of leaving a
// truncated file behind.

CancelToken& InterruptToken() {
  static CancelToken* token = new CancelToken();
  return *token;
}

void OnInterrupt(int /*signo*/) { InterruptToken().Cancel(); }

void InstallInterruptHandler() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnInterrupt;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

/// 128 + SIGINT, the conventional "killed by signal" exit code.
constexpr int kInterruptExit = 130;

struct Args {
  std::map<std::string, std::string> flags;
  /// Malformed numeric flag values, collected as the command reads its
  /// flags (atoll/atof used to swallow these silently: `--n abc` became
  /// 0 and `--n 20q0` became 20), and stray positional arguments.
  /// Commands check BadFlags() after reading every flag they take and
  /// before acting.
  mutable std::vector<std::string> parse_errors;
  /// Every key the command asked about, present or not. BadFlags()
  /// reports the flags outside it: a misspelled `--dleta` or a stale
  /// `--kernel` must not run the command without it.
  mutable std::set<std::string> read;

  bool Has(const std::string& key) const {
    read.insert(key);
    return flags.count(key) > 0;
  }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    read.insert(key);
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    read.insert(key);
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    // Strict full-token parse: the whole value must be one in-range
    // integer, not just start with one.
    if (it->second.empty() || end == nullptr || *end != '\0' ||
        errno == ERANGE) {
      parse_errors.push_back("--" + key + " expects an integer, got '" +
                             it->second + "'");
      return fallback;
    }
    return v;
  }
  double GetDouble(const std::string& key, double fallback) const {
    read.insert(key);
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || end == nullptr || *end != '\0' ||
        errno == ERANGE) {
      parse_errors.push_back("--" + key + " expects a number, got '" +
                             it->second + "'");
      return fallback;
    }
    return v;
  }

  /// Prints every malformed flag seen so far and every flag the command
  /// has not read to stderr; true if any.
  bool BadFlags() const {
    bool bad = !parse_errors.empty();
    for (const std::string& e : parse_errors) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    for (const auto& [key, value] : flags) {
      if (read.count(key) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        bad = true;
      }
    }
    return bad;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "1";  // boolean flag
      }
    } else {
      args.parse_errors.push_back("unexpected argument '" + token + "'");
    }
  }
  return args;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  streamcover_cli generate --type planted|sparse|zipf --n N --m M "
      "--k K [--s S] [--seed SEED] --out FILE [--format text|binary]\n"
      "  streamcover_cli generate-disk --type planted|sparse|zipf --n N "
      "--m M --k K [--s S] [--alpha A] [--seed SEED] --out FILE "
      "[--format binary|text]\n"
      "  streamcover_cli convert --in FILE --out FILE "
      "[--format binary|text]\n"
      "  streamcover_cli stats --in FILE\n"
      "  streamcover_cli solve (--in FILE | --workload NAME) --algo NAME "
      "(see list-solvers / list-workloads) [--n N --m M --k K] [--delta D] "
      "[--c C] [--p P] [--seed SEED] [--coverage F] [--budget B] "
      "[--threads N] "
      "[--scan-threads N] [--shards S] [--early-exit] [--from-disk]\n"
      "  streamcover_cli list-solvers\n"
      "  streamcover_cli list-workloads\n"
      "  streamcover_cli sweep [--solvers a,b,c] [--workloads x,y,z] "
      "[--seeds S] [--trials T] [--n N --m M --k K] [--delta D] [--c C] "
      "[--threads N] [--scan-threads N] [--shards S] [--early-exit] "
      "[--json FILE]\n"
      "  streamcover_cli generate-geom --type disk|rect|tri|figure12 "
      "--n N --m M --k K [--seed SEED] --out FILE\n"
      "  streamcover_cli solve-geom --in FILE [--delta D] [--c C] "
      "[--seed SEED]\n"
      "  streamcover_cli selftest\n");
  return 1;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

int CmdGenerateGeom(const Args& args) {
  const std::string type = args.Get("type", "disk");
  const uint32_t n = static_cast<uint32_t>(args.GetInt("n", 500));
  const uint32_t m = static_cast<uint32_t>(args.GetInt("m", 2000));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 8));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string out = args.Get("out");
  if (args.BadFlags()) return 1;
  if (out.empty()) return Usage();

  GeomInstance instance;
  if (type == "figure12") {
    instance = GenerateFigure12(n % 2 == 0 ? n : n + 1);
  } else {
    ShapeClass cls;
    if (type == "disk") {
      cls = ShapeClass::kDisk;
    } else if (type == "rect") {
      cls = ShapeClass::kRect;
    } else if (type == "tri") {
      cls = ShapeClass::kFatTriangle;
    } else {
      std::fprintf(stderr, "unknown --type %s\n", type.c_str());
      return 1;
    }
    Rng rng(seed);
    GeomPlantedOptions options;
    options.num_points = n;
    options.num_shapes = m;
    options.cover_size = k;
    options.shape_class = cls;
    instance = GeneratePlantedGeom(options, rng);
  }
  GeomDataset dataset{instance.points, instance.shapes};
  if (!SaveGeomDatasetToFile(dataset, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: points=%zu shapes=%zu planted_cover=%zu\n",
              out.c_str(), dataset.points.size(), dataset.shapes.size(),
              instance.planted_cover.size());
  return 0;
}

int CmdSolveGeom(const Args& args) {
  const std::string in = args.Get("in");
  RunOptions options;
  options.delta = args.GetDouble("delta", 0.25);
  options.sample_constant = args.GetDouble("c", options.sample_constant);
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  if (args.BadFlags()) return 1;
  if (in.empty()) return Usage();
  std::string error;
  auto dataset = LoadGeomDatasetFromFile(in, &error);
  if (!dataset) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  GeomInstance geom;
  geom.points = std::move(dataset->points);
  geom.shapes = std::move(dataset->shapes);
  Instance instance =
      Instance::FromGeometry(std::move(geom), {in, "file:" + in});
  RunResult r = RunSolver("geom", instance, options);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.error.c_str());
    return 1;
  }
  const bool feasible = instance.VerifyCover(r.cover);
  std::printf("%s feasible=%s\n",
              RunRecordLine(RunResultJson(r, false)).c_str(),
              feasible ? "yes" : "no");
  return (r.success && feasible) ? 0 : 1;
}

int CmdGenerate(const Args& args) {
  const std::string type = args.Get("type", "planted");
  const uint32_t n = static_cast<uint32_t>(args.GetInt("n", 1000));
  const uint32_t m = static_cast<uint32_t>(args.GetInt("m", 2000));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 10));
  const uint32_t s = static_cast<uint32_t>(args.GetInt("s", 32));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string out = args.Get("out");
  const std::string format = args.Get("format", "text");
  if (args.BadFlags()) return 1;
  if (out.empty()) return Usage();
  if (format != "text" && format != "binary") {
    std::fprintf(stderr, "unknown --format '%s'; available: text, binary\n",
                 format.c_str());
    return 1;
  }

  Rng rng(seed);
  PlantedInstance instance;
  if (type == "planted") {
    PlantedOptions options;
    options.num_elements = n;
    options.num_sets = m;
    options.cover_size = k;
    options.noise_max_size = std::max(1u, n / 20);
    instance = GeneratePlanted(options, rng);
  } else if (type == "sparse") {
    instance = GenerateSparse(n, m, s, rng);
  } else if (type == "zipf") {
    instance = GenerateZipf(n, m, /*alpha=*/1.1, s, rng);
  } else {
    std::fprintf(stderr, "unknown --type %s\n", type.c_str());
    return 1;
  }
  std::string error;
  const bool saved =
      format == "binary"
          ? WriteBinarySetSystem(instance.system, out, &error)
          : SaveSetSystemToFile(instance.system, out);
  if (!saved) {
    std::fprintf(stderr, "cannot write %s%s%s\n", out.c_str(),
                 error.empty() ? "" : ": ", error.c_str());
    return 1;
  }
  std::printf("wrote %s: n=%u m=%u nnz=%zu planted_cover=%zu format=%s\n",
              out.c_str(), instance.system.num_elements(),
              instance.system.num_sets(), instance.system.total_size(),
              instance.planted_cover.size(), format.c_str());
  return 0;
}

/// Streams one set to a text-format file. Normalizes exactly like
/// BinarySetWriter so the two formats carry identical logical instances,
/// and like it skips the normalizing copy for a strictly increasing set.
class TextSetSink {
 public:
  TextSetSink(const std::string& path, uint32_t num_elements,
              uint32_t num_sets)
      : os_(path) {
    os_ << "setcover " << num_elements << " " << num_sets << "\n";
  }

  bool Add(std::span<const uint32_t> elements) {
    if (std::adjacent_find(elements.begin(), elements.end(),
                           std::greater_equal<uint32_t>()) !=
        elements.end()) {
      scratch_.assign(elements.begin(), elements.end());
      std::sort(scratch_.begin(), scratch_.end());
      scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                     scratch_.end());
      elements = scratch_;
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
    os_.write(line_.data(), out - line_.data());
    nnz_ += elements.size();
    return os_.good();
  }

  bool Finish() { return os_.flush().good(); }
  uint64_t nnz() const { return nnz_; }

 private:
  std::ofstream os_;
  std::vector<uint32_t> scratch_;
  std::vector<char> line_;
  uint64_t nnz_ = 0;
};

int CmdConvert(const Args& args) {
  const std::string in = args.Get("in");
  const std::string out = args.Get("out");
  const std::string format = args.Get("format", "binary");
  if (args.BadFlags()) return 1;
  if (in.empty() || out.empty()) return Usage();
  if (format != "text" && format != "binary") {
    std::fprintf(stderr, "unknown --format '%s'; available: text, binary\n",
                 format.c_str());
    return 1;
  }

  // One streaming pass: never materializes the instance, so a multi-GB
  // file converts in O(largest set) memory.
  std::string error;
  std::unique_ptr<SetSource> source = OpenDiskSetSource(in, &error);
  if (source == nullptr) {
    std::fprintf(stderr, "open failed: %s\n", error.c_str());
    return 1;
  }
  uint64_t nnz = 0;
  bool sink_ok = true;
  if (format == "binary") {
    auto writer = BinarySetWriter::Create(out, source->num_elements(),
                                          &error);
    if (!writer.has_value()) {
      std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                   error.c_str());
      return 1;
    }
    const bool scan_ok = source->Scan([&](const SetView& view) {
      if (sink_ok) sink_ok = writer->AddSet(view.elems);
    });
    if (!scan_ok) {
      std::fprintf(stderr, "scan failed: %s\n", source->error().c_str());
      return 1;
    }
    if (!sink_ok || !writer->Finish(&error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                   sink_ok ? error.c_str() : writer->error().c_str());
      return 1;
    }
    nnz = writer->nnz();
  } else {
    TextSetSink sink(out, source->num_elements(), source->num_sets());
    const bool scan_ok = source->Scan([&](const SetView& view) {
      if (sink_ok) sink_ok = sink.Add(view.elems);
    });
    if (!scan_ok) {
      std::fprintf(stderr, "scan failed: %s\n", source->error().c_str());
      return 1;
    }
    if (!sink_ok || !sink.Finish()) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    nnz = sink.nnz();
  }
  std::printf("converted %s -> %s: n=%u m=%u nnz=%llu format=%s\n",
              in.c_str(), out.c_str(), source->num_elements(),
              source->num_sets(), static_cast<unsigned long long>(nnz),
              format.c_str());
  return 0;
}

int CmdGenerateDisk(const Args& args) {
  const std::string type = args.Get("type", "planted");
  const uint32_t n = static_cast<uint32_t>(args.GetInt("n", 1000));
  const uint32_t m = static_cast<uint32_t>(args.GetInt("m", 2000));
  const uint32_t k = static_cast<uint32_t>(args.GetInt("k", 10));
  const uint32_t s = static_cast<uint32_t>(args.GetInt("s", 32));
  const double alpha = args.GetDouble("alpha", 1.1);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string out = args.Get("out");
  const std::string format = args.Get("format", "binary");
  if (args.BadFlags()) return 1;
  if (out.empty()) return Usage();
  if (format != "text" && format != "binary") {
    std::fprintf(stderr, "unknown --format '%s'; available: text, binary\n",
                 format.c_str());
    return 1;
  }

  // Generator → sink, set by set: the instance is never materialized,
  // so paper-scale files (m in the tens of millions) stream straight to
  // disk in O(n + m) memory. Ctrl-C mid-generation aborts via the sink
  // (a multi-GB file takes minutes) and removes the partial output —
  // never leaves a truncated SCOVRB01 file behind.
  InstallInterruptHandler();
  std::string error;
  std::optional<BinarySetWriter> writer;
  std::optional<TextSetSink> text_sink;
  if (format == "binary") {
    writer = BinarySetWriter::Create(out, n, &error);
    if (!writer.has_value()) {
      std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                   error.c_str());
      return 1;
    }
  } else {
    text_sink.emplace(out, n, m);
  }
  SetSink sink = [&](std::span<const uint32_t> elements) {
    if (InterruptToken().cancelled()) return false;
    return writer.has_value() ? writer->AddSet(elements)
                              : text_sink->Add(elements);
  };

  std::optional<StreamGenResult> result;
  if (type == "planted") {
    PlantedOptions options;
    options.num_elements = n;
    options.num_sets = m;
    options.cover_size = k;
    options.noise_max_size = std::max(1u, n / 20);
    result = StreamPlanted(options, seed, sink, &error);
  } else if (type == "sparse") {
    result = StreamSparse(n, m, s, seed, sink, &error);
  } else if (type == "zipf") {
    result = StreamZipf(n, m, alpha, s, seed, sink, &error);
  } else {
    std::fprintf(stderr, "unknown --type %s\n", type.c_str());
    return 1;
  }
  if (!result.has_value()) {
    if (InterruptToken().cancelled()) {
      // The sink refused the next set because SIGINT/SIGTERM fired.
      // Drop the writer (closing the half-written file) and remove it:
      // a truncated SCOVRB01 file would fail validation downstream.
      writer.reset();
      text_sink.reset();
      std::remove(out.c_str());
      std::fprintf(stderr, "interrupted; removed partial %s\n",
                   out.c_str());
      return kInterruptExit;
    }
    std::fprintf(stderr, "generation aborted: %s%s%s\n", error.c_str(),
                 writer.has_value() && !writer->error().empty() ? ": " : "",
                 writer.has_value() ? writer->error().c_str() : "");
    return 1;
  }
  uint64_t nnz = 0;
  if (writer.has_value()) {
    if (!writer->Finish(&error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                   error.c_str());
      return 1;
    }
    nnz = writer->nnz();
  } else {
    if (!text_sink->Finish()) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    nnz = text_sink->nnz();
  }
  std::printf("wrote %s: n=%u m=%llu nnz=%llu planted_cover=%zu "
              "format=%s\n",
              out.c_str(), n,
              static_cast<unsigned long long>(result->num_sets),
              static_cast<unsigned long long>(nnz),
              result->planted_positions.size(), format.c_str());
  return 0;
}

int CmdStats(const Args& args) {
  const std::string in = args.Get("in");
  if (args.BadFlags()) return 1;
  if (in.empty()) return Usage();
  std::string error;
  auto system = LoadAnySetSystemFromFile(in, &error);
  if (!system) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  size_t min_size = SIZE_MAX, max_size = 0;
  uint32_t dense_eligible = 0;
  for (uint32_t s = 0; s < system->num_sets(); ++s) {
    min_size = std::min(min_size, system->SetSize(s));
    max_size = std::max(max_size, system->SetSize(s));
    if (ShouldStoreDense(system->SetSize(s), system->num_elements())) {
      ++dense_eligible;
    }
  }
  if (system->num_sets() == 0) min_size = 0;
  std::printf("instance %s\n", in.c_str());
  std::printf("  elements (n) : %u\n", system->num_elements());
  std::printf("  sets (m)     : %u\n", system->num_sets());
  std::printf("  nnz          : %zu\n", system->total_size());
  std::printf("  set sizes    : min %zu, mean %.1f, max %zu\n", min_size,
              system->num_sets() > 0
                  ? static_cast<double>(system->total_size()) /
                        system->num_sets()
                  : 0.0,
              max_size);
  std::printf("  dense sets   : %u (>= n/%u elements; stored as bitset "
              "rows)\n",
              dense_eligible, kDenseStorageRatio);
  std::printf("  kernel isa   : %s (the tier the dense kernels run on "
              "here)\n",
              KernelIsaName(DetectKernelIsa()));
  std::printf("  coverable    : %s\n",
              IsCoverable(*system) ? "yes" : "NO (some element in no set)");
  // Scan-path diagnostics: which source `solve --from-disk` would draw
  // for this file, how the pipelined engine would chunk it, and a
  // measured decode rate — so scan-throughput regressions are
  // diagnosable from `stats` alone, without a bench run.
  if (IsBinarySetSystemFile(in)) {
    std::string mmap_error;
    std::optional<MmapSetSource> source =
        MmapSetSource::Open(in, &mmap_error);
    if (!source.has_value()) {
      std::fprintf(stderr, "mmap open failed: %s\n", mmap_error.c_str());
      return 1;
    }
    const std::vector<binfmt::ScanChunk> chunks =
        binfmt::BuildChunkPlan(source->layout(), kDefaultScanChunkBytes);
    const uint64_t body_bytes =
        source->layout().footer_offset - binfmt::kHeaderBytes;
    // One inline chunk-decode pass (scan_threads=1, the reference the
    // pipelined gate in bench_hotpath is measured against).
    WallTimer timer;
    uint64_t decoded = 0;
    if (!source->ScanBatches([&decoded](std::span<const SetView> views) {
          for (const SetView& view : views) decoded += view.size();
        })) {
      std::fprintf(stderr, "scan failed: %s\n", source->error().c_str());
      return 1;
    }
    const double seconds = timer.ElapsedSeconds();
    std::printf("  scan path    : mmap (binary; decoded in place)\n");
    std::printf("  decode chunks: %zu (target %llu KB encoded each)\n",
                chunks.size(),
                static_cast<unsigned long long>(kDefaultScanChunkBytes /
                                                1024));
    std::printf("  encoded GB/s : %.2f (inline chunk decode, %llu body "
                "bytes, warm cache)\n",
                seconds > 0 ? static_cast<double>(body_bytes) / seconds /
                                  1e9
                            : 0.0,
                static_cast<unsigned long long>(body_bytes));
    if (decoded != source->nnz()) {
      std::fprintf(stderr, "decoded nnz %llu != header nnz %llu\n",
                   static_cast<unsigned long long>(decoded),
                   static_cast<unsigned long long>(source->nnz()));
      return 1;
    }
    // The bound iterSetCover uses to prove that guesses coincide; the
    // sizes the loader decoded must respect it.
    std::printf("  size bound   : %u (widest footer span - 1; decoded "
                "max %zu)\n",
                source->max_set_size(), max_size);
    if (max_size > source->max_set_size()) {
      std::fprintf(stderr, "decoded max set size %zu > footer bound %u\n",
                   max_size, source->max_set_size());
      return 1;
    }
  } else {
    std::printf("  scan path    : text (re-parsed per pass; `convert "
                "--format binary` unlocks the mmap + pipelined scan)\n");
  }
  return 0;
}

/// Maps the pre-registry CLI spellings onto registry names.
std::string CanonicalAlgoName(const std::string& algo) {
  static const std::map<std::string, std::string> kAliases = {
      {"store-all", "store_all_greedy"},
      {"iterative", "iterative_greedy"},
      {"progressive", "progressive_greedy"},
      {"threshold", "threshold_greedy"},
  };
  auto it = kAliases.find(algo);
  return it == kAliases.end() ? algo : it->second;
}

/// --threads must lie in [0, 256], the serve protocol's range (0 and 1
/// both run inline). Prints why and returns false otherwise.
bool CheckThreads(int64_t threads) {
  if (threads < 0 || threads > 256) {
    std::fprintf(stderr, "--threads must be in [0, 256], got %lld\n",
                 static_cast<long long>(threads));
    return false;
  }
  return true;
}

/// Reads --p (threshold_greedy's pass count) into *passes. Prints why
/// and returns false when it lies outside [1, 2^32 - 1]; a malformed
/// value is left to BadFlags.
bool ReadThresholdPasses(const Args& args, uint32_t* passes) {
  const int64_t p = args.GetInt("p", 2);
  if ((p < 1 || p > int64_t{UINT32_MAX}) && args.parse_errors.empty()) {
    std::fprintf(stderr, "--p must be in [1, %u], got %lld\n", UINT32_MAX,
                 static_cast<long long>(p));
    return false;
  }
  *passes = static_cast<uint32_t>(p);
  return true;
}

/// Reads solve's run flags into *algo and *options, after the flags
/// CmdSolve read itself, and checks them all. Prints why and returns
/// false on a malformed, unknown or out-of-range flag.
bool ReadSolveOptions(const Args& args, std::string* algo,
                      RunOptions* options) {
  *algo = CanonicalAlgoName(args.Get("algo", "iter"));
  options->delta = args.GetDouble("delta", 0.5);
  options->sample_constant = args.GetDouble("c", options->sample_constant);
  options->seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options->coverage_fraction = args.GetDouble("coverage", 1.0);
  options->max_cover_budget =
      static_cast<uint32_t>(args.GetInt("budget", 0));
  const int64_t threads = args.GetInt("threads", 1);
  const int64_t scan_threads = args.GetInt("scan-threads", 1);
  const int64_t shards = args.GetInt("shards", 1);
  options->early_exit = args.Has("early-exit");
  if (!ReadThresholdPasses(args, &options->threshold_passes)) return false;
  if (args.BadFlags()) return false;
  if (!CheckThreads(threads)) return false;
  options->threads = static_cast<uint32_t>(threads);
  if (scan_threads < 1) {
    std::fprintf(stderr, "--scan-threads must be >= 1, got %lld\n",
                 static_cast<long long>(scan_threads));
    return false;
  }
  options->scan_threads = static_cast<uint32_t>(scan_threads);
  if (shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1, got %lld\n",
                 static_cast<long long>(shards));
    return false;
  }
  options->shards = static_cast<uint32_t>(shards);
  if (!(options->coverage_fraction > 0.0 &&
        options->coverage_fraction <= 1.0)) {
    std::fprintf(stderr, "--coverage must be in (0, 1], got %g\n",
                 options->coverage_fraction);
    return false;
  }
  return true;
}

int SolveOnInstance(Instance& instance, const std::string& algo,
                    const RunOptions& options) {
  RunResult r = RunSolver(algo, instance, options);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.error.c_str());
    return 1;
  }

  std::printf("%s covered=%zu/%u\n",
              RunRecordLine(RunResultJson(r, false)).c_str(),
              instance.CountCovered(r.cover), instance.num_elements());
  return r.success ? 0 : 1;
}

int CmdListSolvers() {
  const char* kind_names[] = {"streaming", "offline", "geometric"};
  for (const SolverRegistry::Entry* entry :
       SolverRegistry::Global().Entries()) {
    std::printf("%-20s [%s] %s\n", entry->name.c_str(),
                kind_names[static_cast<int>(entry->kind)],
                entry->description.c_str());
  }
  std::printf("%zu solvers registered\n", SolverRegistry::Global().size());
  return 0;
}

int CmdListWorkloads() {
  const char* kind_names[] = {"abstract", "geometric", "file"};
  for (const WorkloadRegistry::Entry* entry :
       WorkloadRegistry::Global().Entries()) {
    std::printf("%-18s [%s] %s\n", entry->name.c_str(),
                kind_names[static_cast<int>(entry->kind)],
                entry->description.c_str());
  }
  std::printf("%zu workloads registered\n",
              WorkloadRegistry::Global().size());
  return 0;
}

int CmdSweep(const Args& args) {
  const std::vector<std::string> solvers = SplitCommaList(
      args.Get("solvers", "iter,progressive_greedy,threshold_greedy"));
  const std::vector<std::string> workloads =
      SplitCommaList(args.Get("workloads", "planted,sparse,zipf"));
  const int64_t num_seeds = args.GetInt("seeds", 2);
  const int64_t num_trials = args.GetInt("trials", 1);
  if (solvers.empty() || workloads.empty() || num_seeds <= 0 ||
      num_trials <= 0) {
    return Usage();
  }

  const int64_t shards = args.GetInt("shards", 1);
  if (shards < 1 && args.parse_errors.empty()) {
    std::fprintf(stderr, "--shards must be >= 1, got %lld\n",
                 static_cast<long long>(shards));
    return 1;
  }
  const int64_t scan_threads = args.GetInt("scan-threads", 1);
  if (scan_threads < 1 && args.parse_errors.empty()) {
    std::fprintf(stderr, "--scan-threads must be >= 1, got %lld\n",
                 static_cast<long long>(scan_threads));
    return 1;
  }
  const int64_t threads = args.GetInt("threads", 1);
  if (args.parse_errors.empty() && !CheckThreads(threads)) return 1;
  uint32_t threshold_passes = 0;
  if (!ReadThresholdPasses(args, &threshold_passes)) return 1;

  RunPlan plan;
  for (const std::string& solver : solvers) {
    SolverSpec spec;
    spec.solver = CanonicalAlgoName(solver);
    spec.options.delta = args.GetDouble("delta", 0.5);
    spec.options.sample_constant =
        args.GetDouble("c", spec.options.sample_constant);
    spec.options.threshold_passes = threshold_passes;
    spec.options.coverage_fraction = args.GetDouble("coverage", 1.0);
    spec.options.threads = static_cast<uint32_t>(threads);
    spec.options.scan_threads = static_cast<uint32_t>(scan_threads);
    spec.options.shards = static_cast<uint32_t>(shards);
    spec.options.early_exit = args.Has("early-exit");
    plan.solvers.push_back(std::move(spec));
  }
  for (const std::string& workload : workloads) {
    WorkloadSpec spec;
    spec.workload = workload;
    spec.params.n = static_cast<uint32_t>(args.GetInt("n", 500));
    spec.params.m = static_cast<uint32_t>(args.GetInt("m", 1000));
    spec.params.k = static_cast<uint32_t>(args.GetInt("k", 8));
    spec.params.max_set_size =
        static_cast<uint32_t>(args.GetInt("s", 32));
    spec.params.path = args.Get("path");
    plan.workloads.push_back(std::move(spec));
  }
  plan.seeds.clear();
  for (int64_t seed = 1; seed <= num_seeds; ++seed) {
    plan.seeds.push_back(static_cast<uint64_t>(seed));
  }
  plan.trials = static_cast<uint32_t>(num_trials);
  const std::string json_path = args.Get("json");
  if (args.BadFlags()) return 1;

  // SIGINT/SIGTERM stop the grid at the next run boundary: the partial
  // table is printed but the --json report is suppressed (a half-grid
  // report would be indistinguishable from a complete one downstream).
  InstallInterruptHandler();
  RunReport report = ExecutePlan(plan, &InterruptToken());
  std::printf("sweep: %zu solvers x %zu workloads x %zu seeds x %u "
              "trials\n\n",
              plan.solvers.size(), plan.workloads.size(),
              plan.seeds.size(), plan.trials);
  report.SummaryTable().Print(std::cout);
  if (InterruptToken().cancelled()) {
    std::fprintf(stderr,
                 "\ninterrupted; partial results above, no JSON written\n");
    return kInterruptExit;
  }

  bool any_failure = false;
  for (const RunCell& cell : report.cells) {
    for (const std::string& error : cell.errors) {
      std::fprintf(stderr, "[%s x %s] %s\n", cell.solver.c_str(),
                   cell.workload.c_str(), error.c_str());
      any_failure = true;
    }
  }

  if (!json_path.empty()) {
    std::string error;
    if (!report.WriteJsonFile(json_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return any_failure ? 1 : 0;
}

int CmdSolve(const Args& args) {
  const std::string in = args.Get("in");
  const std::string workload = args.Get("workload");
  const bool from_disk = args.Has("from-disk");
  if (!workload.empty() && (!in.empty() || from_disk)) {
    std::fprintf(stderr,
                 "--workload conflicts with --in/--from-disk; pick one "
                 "input source\n");
    return 1;
  }
  WorkloadParams params;
  if (!workload.empty()) {
    params.n = static_cast<uint32_t>(args.GetInt("n", 1000));
    params.m = static_cast<uint32_t>(args.GetInt("m", 2000));
    params.k = static_cast<uint32_t>(args.GetInt("k", 10));
    params.max_set_size = static_cast<uint32_t>(args.GetInt("s", 32));
    params.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
    params.path = args.Get("path");
  }
  std::string algo;
  RunOptions options;
  if (!ReadSolveOptions(args, &algo, &options)) return 1;
  if (!workload.empty()) {
    // Solve directly on a registered workload family — no file needed.
    // Unknown names fail with the full list of registered workloads.
    std::string error;
    std::optional<Instance> instance =
        MakeWorkload(workload, params, &error);
    if (!instance.has_value()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    return SolveOnInstance(*instance, algo, options);
  }
  if (in.empty()) return Usage();
  std::string error;
  if (from_disk) {
    // Keep the repository on disk, re-parsed on every pass — the
    // model's "read-only repository", literally.
    std::optional<Instance> instance = Instance::FromFile(in, &error);
    if (!instance.has_value()) {
      std::fprintf(stderr, "open failed: %s\n", error.c_str());
      return 1;
    }
    return SolveOnInstance(*instance, algo, options);
  }
  auto system = LoadAnySetSystemFromFile(in, &error);
  if (!system) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  Instance instance = Instance::FromSystem(std::move(*system),
                                           {in, "file:" + in});
  return SolveOnInstance(instance, algo, options);
}

int CmdSelfTest() {
  const std::string dir =
      std::getenv("TMPDIR") != nullptr ? std::getenv("TMPDIR") : "/tmp";
  const std::string path = dir + "/streamcover_cli_selftest.txt";

  {
    Args gen;
    gen.flags = {{"type", "planted"}, {"n", "400"},    {"m", "900"},
                 {"k", "8"},          {"seed", "3"},   {"out", path}};
    if (CmdGenerate(gen) != 0) return 1;
  }
  {
    Args stats;
    stats.flags = {{"in", path}};
    if (CmdStats(stats) != 0) return 1;
  }
  for (const char* algo :
       {"iter", "store_all_greedy", "iterative_greedy",
        "progressive_greedy", "threshold_greedy", "streaming_max_cover",
        "offline_greedy"}) {
    Args solve;
    solve.flags = {{"in", path}, {"algo", algo}, {"delta", "0.5"}};
    if (CmdSolve(solve) != 0) {
      std::fprintf(stderr, "selftest: algo %s failed\n", algo);
      return 1;
    }
  }
  {
    // Legacy aliases must still dispatch, and unknown names must fail
    // cleanly with exit code 1 (not abort).
    Args solve;
    solve.flags = {{"in", path}, {"algo", "store-all"}};
    if (CmdSolve(solve) != 0) return 1;
    solve.flags = {{"in", path}, {"algo", "no-such-solver"}};
    if (CmdSolve(solve) != 1) return 1;
  }
  {
    // Workload-backed solve: registered names dispatch, unknown names
    // fail cleanly (listing the registered families on stderr).
    Args solve;
    solve.flags = {{"workload", "planted"}, {"algo", "iter"},
                   {"n", "300"},            {"m", "600"},
                   {"k", "6"},              {"seed", "2"}};
    if (CmdSolve(solve) != 0) return 1;
    solve.flags = {{"workload", "no-such-workload"}, {"algo", "iter"}};
    if (CmdSolve(solve) != 1) return 1;
  }
  {
    // A delta outside (0, 1] fails with exit code 1, not an abort.
    Args solve;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"delta", "0"}};
    if (CmdSolve(solve) != 1) return 1;
  }
  {
    // Disk-streamed solve must agree with the in-memory one.
    Args solve;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"from-disk", "1"}};
    if (CmdSolve(solve) != 0) return 1;
  }
  {
    // Malformed numeric flags must be rejected with exit code 1, not
    // silently coerced (atoll used to read `--n abc` as 0 and
    // `--n 20q0` as 20).
    Args gen;
    gen.flags = {{"type", "planted"}, {"n", "abc"}, {"m", "900"},
                 {"k", "8"},          {"out", path}};
    if (CmdGenerate(gen) != 1) return 1;
    gen.flags = {{"type", "planted"}, {"n", "20q0"}, {"m", "900"},
                 {"k", "8"},          {"out", path}};
    if (CmdGenerate(gen) != 1) return 1;
    Args solve;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"delta", "0.5x"}};
    if (CmdSolve(solve) != 1) return 1;
    // Out-of-range coverage targets fail at the CLI boundary instead of
    // underflowing AllowedUncovered.
    solve.flags = {{"in", path}, {"algo", "iter"}, {"coverage", "1.5"}};
    if (CmdSolve(solve) != 1) return 1;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"coverage", "0"}};
    if (CmdSolve(solve) != 1) return 1;
  }
  {
    // A flag no command reads is an error, not a silent default: the
    // misspelled --dleta and --thread, and the stale --kernel, exit 1
    // before anything runs or is written. Fresh Args per case.
    for (const char* flag : {"dleta", "thread", "kernel"}) {
      Args solve;
      solve.flags = {{"in", path}, {"algo", "iter"}, {flag, "1"}};
      if (CmdSolve(solve) != 1) return 1;
    }
    const std::string unwritten = dir + "/streamcover_cli_selftest_bad.bin";
    std::remove(unwritten.c_str());
    Args gen;
    gen.flags = {{"type", "sparse"}, {"seeed", "3"}, {"out", unwritten}};
    if (CmdGenerateDisk(gen) != 1) return 1;
    if (std::ifstream(unwritten).good()) return 1;
    Args sweep;
    sweep.flags = {{"solvers", "iter"}, {"workloads", "planted"},
                   {"jsn", unwritten}};
    if (CmdSweep(sweep) != 1) return 1;
    Args stats;
    stats.flags = {{"in", path}, {"verbose", "1"}};
    if (CmdStats(stats) != 1) return 1;
  }
  {
    // A pass count below 1 fails at the CLI boundary instead of aborting
    // (p = 0) or wrapping to ~4.3e9 passes (p = -3). Fresh Args per
    // case: parse errors accumulate on an Args and would mask the check.
    for (const char* p : {"0", "-3"}) {
      Args solve;
      solve.flags = {{"in", path}, {"algo", "threshold_greedy"}, {"p", p}};
      if (CmdSolve(solve) != 1) return 1;
      Args sweep;
      sweep.flags = {{"solvers", "threshold_greedy"},
                     {"workloads", "sparse"},
                     {"p", p}};
      if (CmdSweep(sweep) != 1) return 1;
    }
  }
  {
    // Binary pipeline: convert text -> binary, mmap-solve it, convert
    // back to text; stats must accept every produced file.
    const std::string bin_path = dir + "/streamcover_cli_selftest.bin";
    const std::string rt_path = dir + "/streamcover_cli_selftest_rt.txt";
    Args convert;
    convert.flags = {{"in", path}, {"out", bin_path},
                     {"format", "binary"}};
    if (CmdConvert(convert) != 0) return 1;
    Args stats;
    stats.flags = {{"in", bin_path}};
    if (CmdStats(stats) != 0) return 1;
    Args solve;
    solve.flags = {{"in", bin_path}, {"algo", "iter"}, {"from-disk", "1"}};
    if (CmdSolve(solve) != 0) return 1;
    solve.flags = {{"in", bin_path}, {"algo", "iter"}};
    if (CmdSolve(solve) != 0) return 1;
    convert.flags = {{"in", bin_path}, {"out", rt_path},
                     {"format", "text"}};
    if (CmdConvert(convert) != 0) return 1;
    stats.flags = {{"in", rt_path}};
    if (CmdStats(stats) != 0) return 1;
  }
  {
    // Streamed generation to disk, both formats, then a mmap solve.
    const std::string disk_bin = dir + "/streamcover_cli_selftest_gd.bin";
    const std::string disk_txt = dir + "/streamcover_cli_selftest_gd.txt";
    Args gen;
    gen.flags = {{"type", "planted"}, {"n", "300"},  {"m", "700"},
                 {"k", "6"},          {"seed", "5"}, {"out", disk_bin},
                 {"format", "binary"}};
    if (CmdGenerateDisk(gen) != 0) return 1;
    gen.flags = {{"type", "zipf"}, {"n", "300"},  {"m", "700"},
                 {"s", "24"},      {"seed", "5"}, {"out", disk_txt},
                 {"format", "text"}};
    if (CmdGenerateDisk(gen) != 0) return 1;
    Args solve;
    solve.flags = {{"in", disk_bin}, {"algo", "iter"}, {"from-disk", "1"}};
    if (CmdSolve(solve) != 0) return 1;
    Args stats;
    stats.flags = {{"in", disk_txt}};
    if (CmdStats(stats) != 0) return 1;
  }
  if (CmdListWorkloads() != 0) return 1;
  {
    // A tiny sweep through WorkloadRegistry/RunPlan — multiplexed over
    // 4 scheduler threads; its v6 JSON must parse back with the
    // physical-scans column populated and every number of the run
    // record (gain counters and projection_words_peak included)
    // aggregated on every cell.
    const std::string json_path = dir + "/streamcover_cli_selftest.json";
    Args sweep;
    sweep.flags = {{"solvers", "iter,store_all_greedy,progressive_greedy"},
                   {"workloads", "planted,sparse,adversarial"},
                   {"seeds", "2"},
                   {"n", "200"},
                   {"m", "400"},
                   {"k", "5"},
                   {"threads", "4"},
                   {"json", json_path}};
    if (CmdSweep(sweep) != 0) return 1;
    std::ifstream is(json_path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    std::string error;
    auto parsed = JsonValue::Parse(buffer.str(), &error);
    if (!parsed.has_value() || !parsed->is_object() ||
        parsed->At("schema").AsString() != "streamcover.run_report.v6" ||
        parsed->At("cells").size() != 9 ||
        !parsed->At("cells")[0].At("physical_scans").is_object()) {
      std::fprintf(stderr, "selftest: sweep JSON invalid: %s\n",
                   error.c_str());
      return 1;
    }
    for (size_t cell = 0; cell < parsed->At("cells").size(); ++cell) {
      for (const char* key : {"cover_size", "gain_updates", "sets_touched",
                              "projection_words_peak"}) {
        if (!parsed->At("cells")[cell].At(key).is_object()) {
          std::fprintf(stderr, "selftest: cell %zu missing v6 stat %s\n",
                       cell, key);
          return 1;
        }
      }
    }
  }
  {
    // Sharded solve family: the unsharded reference and the sharded
    // engine dispatch; --shards is strictly parsed (malformed and
    // non-positive values exit 1, never silently coerce).
    Args solve;
    solve.flags = {{"in", path}, {"algo", "greedi"}};
    if (CmdSolve(solve) != 0) return 1;
    solve.flags = {{"in", path}, {"algo", "sharded_greedi"},
                   {"shards", "4"}, {"threads", "4"}};
    if (CmdSolve(solve) != 0) return 1;
    solve.flags = {{"in", path}, {"algo", "sharded_greedi"},
                   {"shards", "2x"}};
    if (CmdSolve(solve) != 1) return 1;
    solve.flags = {{"in", path}, {"algo", "sharded_greedi"},
                   {"shards", "0"}};
    if (CmdSolve(solve) != 1) return 1;
  }
  {
    // Pipelined scan: --scan-threads runs the chunk decoder on a decode
    // pool and must agree with the inline decode (same exit status and
    // a successful cover); the flag is strictly parsed —
    // malformed and non-positive values exit 1, never silently coerce.
    const std::string bin_path = dir + "/streamcover_cli_selftest.bin";
    Args solve;
    solve.flags = {{"in", bin_path}, {"algo", "iter"},
                   {"from-disk", "1"}, {"scan-threads", "4"}};
    if (CmdSolve(solve) != 0) return 1;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"scan-threads", "0"}};
    if (CmdSolve(solve) != 1) return 1;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"scan-threads", "4x"}};
    if (CmdSolve(solve) != 1) return 1;
    Args bad;
    bad.flags = {{"solvers", "iter"}, {"workloads", "planted"},
                 {"scan-threads", "-2"}};
    if (CmdSweep(bad) != 1) return 1;
  }
  {
    // --threads is range-checked like the serve protocol's field: -1
    // (which a cast would wrap to 2^32 - 1) and 257 exit 1 before any
    // thread starts, in solve and in sweep; 0 runs inline.
    Args solve;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"threads", "-1"}};
    if (CmdSolve(solve) != 1) return 1;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"threads", "257"}};
    if (CmdSolve(solve) != 1) return 1;
    solve.flags = {{"in", path}, {"algo", "iter"}, {"threads", "0"}};
    if (CmdSolve(solve) != 0) return 1;
    Args bad;
    bad.flags = {{"solvers", "iter"}, {"workloads", "planted"},
                 {"threads", "-1"}};
    if (CmdSweep(bad) != 1) return 1;
  }
  {
    // Sharded sweep: the shards axis must land in the report's solver
    // options JSON.
    const std::string json_path = dir + "/streamcover_cli_shardsweep.json";
    Args sweep;
    sweep.flags = {{"solvers", "greedi,sharded_greedi"},
                   {"workloads", "planted"},
                   {"seeds", "1"},
                   {"n", "200"},
                   {"m", "400"},
                   {"k", "5"},
                   {"shards", "2"},
                   {"json", json_path}};
    if (CmdSweep(sweep) != 0) return 1;
    std::ifstream is(json_path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    std::string error;
    auto parsed = JsonValue::Parse(buffer.str(), &error);
    if (!parsed.has_value() ||
        parsed->At("cells").size() != 2 ||
        parsed->At("solvers")[0].At("options").At("shards").AsUint64() !=
            2) {
      std::fprintf(stderr, "selftest: sharded sweep JSON invalid: %s\n",
                   error.c_str());
      return 1;
    }
    Args bad;
    bad.flags = {{"solvers", "sharded_greedi"}, {"workloads", "planted"},
                 {"shards", "0"}};
    if (CmdSweep(bad) != 1) return 1;
  }
  // Geometric pipeline.
  const std::string geom_path = dir + "/streamcover_cli_selftest_geom.txt";
  {
    Args gen;
    gen.flags = {{"type", "disk"}, {"n", "200"},  {"m", "600"},
                 {"k", "5"},       {"seed", "2"}, {"out", geom_path}};
    if (CmdGenerateGeom(gen) != 0) return 1;
  }
  {
    Args solve;
    solve.flags = {{"in", geom_path}, {"delta", "0.25"}};
    if (CmdSolveGeom(solve) != 0) return 1;
  }
  std::printf("selftest OK\n");
  return 0;
}

}  // namespace
}  // namespace streamcover

int main(int argc, char** argv) {
  using namespace streamcover;
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  Args args = ParseArgs(argc, argv, 2);
  if (cmd == "list-solvers" || cmd == "--list_solvers" ||
      cmd == "--list-solvers") {
    return args.BadFlags() ? 1 : CmdListSolvers();
  }
  if (cmd == "list-workloads" || cmd == "--list-workloads") {
    return args.BadFlags() ? 1 : CmdListWorkloads();
  }
  if (cmd == "sweep") return CmdSweep(args);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "generate-disk") return CmdGenerateDisk(args);
  if (cmd == "convert") return CmdConvert(args);
  if (cmd == "generate-geom") return CmdGenerateGeom(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "solve") return CmdSolve(args);
  if (cmd == "solve-geom") return CmdSolveGeom(args);
  if (cmd == "selftest") return args.BadFlags() ? 1 : CmdSelfTest();
  return Usage();
}
