// serve_mix: closed-loop clients against an in-process CoverageServer.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/instance.h"
#include "core/workload_registry.h"
#include "host.h"
#include "serve/server.h"
#include "setsystem/cover.h"
#include "stats.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

using streamcover::CoverageServer;
using streamcover::Instance;
using streamcover::JsonValue;
using streamcover::RunOptions;
using streamcover::RunResult;
using streamcover::WallTimer;

namespace {

// The paper's multi-pass algorithm, the few-pass sieve, the one-pass
// store-all greedy and the sharded solver with its merge stage, over
// two resident instances of different shape: every request forks an
// in-memory scan, so the mix loads the queue, the cache and many short
// concurrent scans with no decode.
constexpr const char* kSolvers[] = {"iter", "threshold_greedy",
                                    "store_all_greedy", "sharded_greedi"};
constexpr uint32_t kShards = 2;
constexpr uint64_t kRequestSeeds = 4;
constexpr uint32_t kWorkers = 4;
constexpr uint32_t kClients = 4;
constexpr int kSetups = 7;
/// p99 needs ten samples beyond it.
constexpr uint64_t kMinRequests = 1000;
/// The footprint is the median of the peaks of windows this long: the
/// peak over a whole run is one extreme of how heavy requests happened
/// to overlap.
constexpr double kRssWindowSeconds = 2.0;

struct ServeInstance {
  std::string spec;  ///< the name requests use
  const char* workload;
  streamcover::WorkloadParams params;
};

std::vector<ServeInstance> InstancesFor(uint64_t seed) {
  std::vector<ServeInstance> out(2);
  out[0].workload = "planted";
  out[0].params.n = 2000;
  out[0].params.m = 4000;
  out[0].params.k = 20;
  out[1].workload = "sparse";
  out[1].params.n = 4096;
  out[1].params.m = 8192;
  out[1].params.max_set_size = 64;
  for (ServeInstance& instance : out) instance.params.seed = seed;
  const std::string s = std::to_string(seed);
  out[0].spec = "planted:n=2000,m=4000,k=20,seed=" + s;
  out[1].spec = "sparse:n=4096,m=8192,max_set_size=64,seed=" + s;
  return out;
}

/// One (solver, instance, request seed) cell and its RunSolver answer.
struct Reference {
  std::string solver;
  size_t instance = 0;
  std::string line;  ///< the request
  RunResult result;
};

struct ServeSetup {
  std::unique_ptr<CoverageServer> server;
  std::vector<Instance> instances;
  std::vector<Reference> refs;
  double open_s = 0;      ///< server construction + worker start
  double preload_s = 0;   ///< both instances into the server's cache
  double generate_s = 0;  ///< the reference copies of the instances
  double total_s = 0;     ///< including the reference solves
};

bool Setup(uint64_t seed, ServeSetup* setup, std::string* error) {
  const std::vector<ServeInstance> specs = InstancesFor(seed);
  WallTimer total;
  WallTimer timer;
  streamcover::ServerOptions options;
  options.workers = kWorkers;
  options.queue_capacity = 1024;  // a closed loop never fills it
  setup->server = std::make_unique<CoverageServer>(options);
  setup->server->Start();
  setup->open_s = timer.ElapsedSeconds();

  timer.Reset();
  for (const ServeInstance& instance : specs) {
    if (!setup->server->Preload(instance.spec, error)) return false;
  }
  setup->preload_s = timer.ElapsedSeconds();

  timer.Reset();
  for (const ServeInstance& instance : specs) {
    std::optional<Instance> made =
        streamcover::MakeWorkload(instance.workload, instance.params, error);
    if (!made.has_value()) return false;
    setup->instances.push_back(std::move(*made));
  }
  setup->generate_s = timer.ElapsedSeconds();

  for (const char* solver : kSolvers) {
    for (size_t i = 0; i < specs.size(); ++i) {
      for (uint64_t j = 0; j < kRequestSeeds; ++j) {
        Reference ref;
        ref.solver = solver;
        ref.instance = i;
        RunOptions run;
        run.seed = seed * kRequestSeeds + j + 1;
        const bool sharded = ref.solver == "sharded_greedi";
        if (sharded) run.shards = kShards;
        ref.result = streamcover::RunSolver(solver, setup->instances[i], run);
        const streamcover::SetSystem* system = setup->instances[i].materialized();
        if (!ref.result.ok() || !ref.result.success || system == nullptr ||
            !streamcover::IsFullCover(*system, ref.result.cover)) {
          *error = "reference " + ref.solver + " on " + specs[i].spec +
                   " failed: " + ref.result.error;
          return false;
        }
        ref.line = "{\"op\":\"solve\",\"instance\":\"" + specs[i].spec +
                   "\",\"solver\":\"" + ref.solver +
                   "\",\"seed\":" + std::to_string(run.seed) +
                   (sharded ? ",\"shards\":" + std::to_string(kShards) : "") +
                   ",\"include_cover\":true}";
        setup->refs.push_back(std::move(ref));
      }
    }
  }
  setup->total_s = total.ElapsedSeconds();
  return true;
}

std::string CallBlocking(CoverageServer& server, const std::string& line) {
  std::promise<std::string> done;
  std::future<std::string> response = done.get_future();
  server.HandleLine(line, [&done](const std::string& text) {
    done.set_value(text);
  });
  return response.get();
}

uint64_t CacheMisses(CoverageServer& server) {
  std::optional<JsonValue> stats =
      JsonValue::Parse(CallBlocking(server, "{\"op\":\"stats\"}"));
  return stats.has_value() ? stats->At("cache").At("misses").AsUint64() : 0;
}

struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> run_ms;       ///< responses' duration_ms
  std::vector<double> overhead_ms;  ///< latency - duration_ms
  std::vector<double> merge_ms;     ///< sharded responses' merge time
  std::vector<double> rss_mb;       ///< peak RSS of each window
  uint64_t ok = 0;
  double wall_s = 0;
  uint64_t cache_misses = 0;
};

/// Checks one response against its reference: ok, same cover size and
/// passes, and a returned cover that covers the instance.
bool CheckResponse(const JsonValue& doc, const Reference& ref,
                   const Instance& instance, std::string* why) {
  if (!doc.At("ok").AsBool()) {
    *why = "request failed: " + doc.At("error").At("message").AsString();
    return false;
  }
  if (doc.At("cover_size").AsUint64() != ref.result.cover.size() ||
      doc.At("passes").AsUint64() != ref.result.passes) {
    *why = ref.solver + ": cover_size/passes differ from the RunSolver reference";
    return false;
  }
  streamcover::Cover cover;
  for (const JsonValue& id : doc.At("cover").items()) {
    const uint64_t value = id.AsUint64();
    if (value >= instance.num_sets()) {
      *why = ref.solver + ": cover names a set out of range";
      return false;
    }
    cover.set_ids.push_back(static_cast<uint32_t>(value));
  }
  if (cover.size() != ref.result.cover.size() ||
      !streamcover::IsFullCover(*instance.materialized(), cover)) {
    *why = ref.solver + ": returned cover does not cover the instance";
    return false;
  }
  return true;
}

/// One client's view of a phase.
struct ClientLog {
  Phase phase;
  std::vector<std::string> failures;  ///< one entry per failed request
};

/// Sends requests in a closed loop — the next one when the previous
/// reply arrives — checking each reply before the next send. Each
/// request is a cell drawn at random: clients walking the cells in a
/// fixed order fall into step with each other, and how many heavy
/// requests then overlap would differ from run to run.
void ClientLoop(const ServeSetup& setup, uint64_t seed, uint32_t client,
                const std::atomic<bool>& stop,
                std::atomic<uint64_t>& completed, TraceRecorder* trace,
                ClientLog* log) {
  streamcover::Rng rng(seed * kClients + client);
  while (!stop.load()) {
    const Reference& ref = setup.refs[rng.Uniform(setup.refs.size())];
    std::string response;
    double latency_ms = 0;
    {
      ScopedSpan span(trace, ref.solver, "serve", -1);
      WallTimer timer;
      response = CallBlocking(*setup.server, ref.line);
      latency_ms = timer.ElapsedMillis();
    }
    completed.fetch_add(1);
    log->phase.latency_ms.push_back(latency_ms);
    std::string why = "unparseable response";
    std::optional<JsonValue> doc = JsonValue::Parse(response);
    if (!doc.has_value() ||
        !CheckResponse(*doc, ref, setup.instances[ref.instance], &why)) {
      log->failures.push_back(why);
      continue;
    }
    ++log->phase.ok;
    const double run_ms = doc->At("duration_ms").AsDouble();
    log->phase.run_ms.push_back(run_ms);
    log->phase.overhead_ms.push_back(latency_ms - run_ms);
    if (const JsonValue* merge = doc->Find("merge")) {
      log->phase.merge_ms.push_back(merge->At("duration_ms").AsDouble());
    }
  }
}

void Append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// kClients closed-loop clients until `seconds` have passed and at
/// least kMinRequests have completed.
Phase RunPhase(ServeSetup& setup, uint64_t seed, double seconds,
               TraceRecorder* trace, RunOutcome* outcome) {
  const uint64_t misses_before = CacheMisses(*setup.server);
  std::vector<ClientLog> logs(kClients);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  Phase phase;
  ResetPeakRss();
  WallTimer wall;
  WallTimer window;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back(ClientLoop, std::cref(setup), seed, c,
                         std::cref(stop), std::ref(completed), trace,
                         &logs[c]);
  }
  while (wall.ElapsedSeconds() < seconds || completed.load() < kMinRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (window.ElapsedSeconds() >= kRssWindowSeconds) {
      phase.rss_mb.push_back(PeakRssMb());
      ResetPeakRss();
      window.Reset();
    }
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();
  phase.rss_mb.push_back(PeakRssMb());
  phase.wall_s = wall.ElapsedSeconds();
  phase.cache_misses = CacheMisses(*setup.server) - misses_before;
  for (const ClientLog& log : logs) {
    Append(phase.latency_ms, log.phase.latency_ms);
    Append(phase.run_ms, log.phase.run_ms);
    Append(phase.overhead_ms, log.phase.overhead_ms);
    Append(phase.merge_ms, log.phase.merge_ms);
    phase.ok += log.phase.ok;
    outcome->attempted += log.phase.ok;
    for (const std::string& why : log.failures) outcome->Attempt(false, why);
  }
  return phase;
}

}  // namespace

RunOutcome RunServeWorkload(const BenchFlags& flags, TraceRecorder* trace) {
  RunOutcome outcome;
  std::map<std::string, double>& metrics = outcome.metrics;
  ServeSetup setup;
  std::vector<double> setup_s;
  for (int i = 0; i < (trace != nullptr ? 1 : kSetups); ++i) {
    if (setup.server != nullptr) setup.server->Shutdown();
    setup = ServeSetup();
    std::string error;
    if (!Setup(flags.seed, &setup, &error)) {
      outcome.Attempt(false, "serve set-up failed: " + error);
      if (setup.server != nullptr) setup.server->Shutdown();
      return outcome;
    }
    setup_s.push_back(setup.total_s);
  }

  if (trace == nullptr) {
    const Phase phase = RunPhase(setup, flags.seed, flags.seconds, nullptr, &outcome);
    metrics["solve_s"] = Median(phase.run_ms) * 1e-3;
    metrics["setup_s"] = Median(setup_s);
    double cover = 0, passes = 0, scans = 0, space = 0;
    for (const Reference& ref : setup.refs) {
      cover += static_cast<double>(ref.result.cover.size());
      passes += static_cast<double>(ref.result.passes);
      scans += static_cast<double>(ref.result.physical_scans);
      space += static_cast<double>(ref.result.space_words);
    }
    metrics["cover_size"] = cover;
    metrics["passes"] = passes;
    metrics["physical_scans"] = scans;
    metrics["space_words"] = space;
    metrics["peak_rss_mb"] = Median(phase.rss_mb);
    metrics["serve_rps"] = static_cast<double>(phase.ok) / phase.wall_s;
    metrics["serve_p50_ms"] = Median(phase.latency_ms);
    metrics["serve_p99_ms"] = ReportableTail(phase.latency_ms, 0.99);
    std::printf("serve_mix: %zu requests in %.3f s over %zu cells, "
                "%u clients, %u workers\n",
                phase.latency_ms.size(), phase.wall_s, setup.refs.size(),
                kClients, kWorkers);
  } else {
    metrics["setup.generate_s"] = setup.generate_s;
    metrics["setup.open_s"] = setup.open_s;
    metrics["setup.preload_s"] = setup.preload_s;
    // Half the time untraced, half traced: the traced phase gives the
    // serve layer's numbers, the difference gives the tracing overhead.
    const double half = std::max(1.0, flags.seconds / 2.0);
    const Phase plain = RunPhase(setup, flags.seed, half, nullptr, &outcome);
    const Phase traced = RunPhase(setup, flags.seed, half, trace, &outcome);
    metrics["shard.merge_ms_p50"] = Median(traced.merge_ms);
    metrics["serve.run_ms_p50"] = Median(traced.run_ms);
    metrics["serve.run_ms_p99"] = ReportableTail(traced.run_ms, 0.99);
    metrics["serve.overhead_ms_p50"] = Median(traced.overhead_ms);
    metrics["serve.overhead_ms_p99"] = ReportableTail(traced.overhead_ms, 0.99);
    metrics["serve.cache_misses"] = static_cast<double>(traced.cache_misses);
    const double plain_p50 = Median(plain.latency_ms);
    metrics["trace.overhead_frac"] =
        (Median(traced.latency_ms) - plain_p50) / plain_p50;
    std::printf("serve_mix: %zu untraced + %zu traced requests\n",
                plain.latency_ms.size(), traced.latency_ms.size());
  }
  setup.server->Shutdown();
  return outcome;
}

}  // namespace perfbench
