#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/solver_registry.h"
#include "util/cover_kernels.h"

namespace streamcover {

CoverageServer::CoverageServer(ServerOptions options)
    : options_(options), cache_(options.cache_bytes) {}

CoverageServer::~CoverageServer() { Shutdown(); }

void CoverageServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (accepting_ || stopping_) return;
  accepting_ = true;
  const uint32_t n = std::max<uint32_t>(1, options_.workers);
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void CoverageServer::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!accepting_ && workers_.empty()) return;
    accepting_ = false;
    // Drain: admitted work (queued or running) completes first.
    drained_.wait(lock,
                  [this] { return queue_.empty() && in_flight_ == 0; });
    stopping_ = true;
    work_ready_.notify_all();
    workers.swap(workers_);
  }
  for (std::thread& worker : workers) worker.join();
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = false;
}

bool CoverageServer::Preload(const std::string& name, std::string* error) {
  return cache_.Get(name, error) != nullptr;
}

void CoverageServer::CountOutcome(const ServeRequest& request,
                                  const char* outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  if (outcome == std::string_view("ok")) {
    ++counters_.ok;
  } else if (outcome == std::string_view(kErrBadRequest)) {
    ++counters_.bad_request;
  } else if (outcome == std::string_view(kErrNotFound)) {
    ++counters_.not_found;
  } else if (outcome == std::string_view(kErrDeadlineExceeded)) {
    ++counters_.deadline_exceeded;
  } else if (outcome == std::string_view(kErrSolveFailed)) {
    ++counters_.solve_failed;
  }
  if (request.op == "solve") {
    if (!request.solver.empty()) ++counters_.per_solver[request.solver];
    if (!request.instance.empty()) {
      ++counters_.per_instance[request.instance];
    }
  }
}

void CoverageServer::HandleLine(const std::string& line,
                                Responder respond) {
  ServeRequest request;
  std::string parse_error;
  if (!ParseServeRequest(line, &request, &parse_error)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.received;
      ++counters_.bad_request;
    }
    respond(ErrorResponse("", kErrBadRequest, parse_error).Dump(0));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.received;
  }

  // Control ops answer inline so observability survives a full queue.
  if (request.op == "ping") {
    respond(OkResponse(request.id).Dump(0));
    return;
  }
  if (request.op == "stats") {
    JsonValue stats = StatsJson();
    if (!request.id.empty()) {
      JsonValue wrapped = JsonValue::Object();
      wrapped.Set("id", request.id);
      wrapped.Set("ok", true);
      wrapped.Set("stats", std::move(stats));
      respond(wrapped.Dump(0));
    } else {
      stats.Set("ok", true);
      respond(stats.Dump(0));
    }
    return;
  }
  if (request.op == "list") {
    JsonValue response = JsonValue::Object();
    if (!request.id.empty()) response.Set("id", request.id);
    response.Set("ok", true);
    JsonValue solvers = JsonValue::Array();
    for (const std::string& name : SolverRegistry::Global().Names()) {
      solvers.Append(name);
    }
    response.Set("solvers", std::move(solvers));
    JsonValue residents = JsonValue::Array();
    for (const ResidentInstance& resident : cache_.List()) {
      JsonValue entry = JsonValue::Object();
      entry.Set("name", resident.name);
      entry.Set("bytes", resident.bytes);
      entry.Set("requests", resident.requests);
      residents.Append(std::move(entry));
    }
    response.Set("instances", std::move(residents));
    respond(response.Dump(0));
    return;
  }
  if (request.op != "solve" && request.op != "sleep") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.bad_request;
    }
    respond(ErrorResponse(request.id, kErrBadRequest,
                          "unknown op '" + request.op + "'")
                .Dump(0));
    return;
  }

  // Work ops: bounded admission. The deadline clock starts here — queue
  // wait is part of the request's budget.
  Job job;
  job.request = std::move(request);
  job.respond = std::move(respond);
  int64_t deadline_ms = options_.default_deadline_ms > 0
                            ? options_.default_deadline_ms
                            : -1;
  if (job.request.deadline_ms.has_value()) {
    deadline_ms = *job.request.deadline_ms;
  }
  if (deadline_ms >= 0) {
    job.cancel = std::make_shared<CancelToken>(
        CancelToken::Clock::now() + std::chrono::milliseconds(deadline_ms));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      ++counters_.shutting_down;
      job.respond(ErrorResponse(job.request.id, kErrShuttingDown,
                                "server is draining")
                      .Dump(0));
      return;
    }
    if (queue_.size() >= options_.queue_capacity) {
      ++counters_.queue_full;
      job.respond(
          ErrorResponse(job.request.id, kErrQueueFull,
                        "request queue is full (capacity " +
                            std::to_string(options_.queue_capacity) + ")")
              .Dump(0));
      return;
    }
    queue_.push_back(std::move(job));
  }
  work_ready_.notify_one();
}

void CoverageServer::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    Execute(job);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drained_.notify_all();
    }
  }
}

void CoverageServer::Execute(Job& job) {
  // A deadline that fired while the job sat in the queue: answer
  // without running — the budget is gone either way.
  if (job.cancel != nullptr && job.cancel->cancelled()) {
    CountOutcome(job.request, kErrDeadlineExceeded);
    solve_latency_.Record(job.admitted.ElapsedMillis());
    job.respond(ErrorResponse(job.request.id, kErrDeadlineExceeded,
                              "deadline expired while queued")
                    .Dump(0));
    return;
  }
  if (job.request.op == "sleep") {
    RunSleep(job);
  } else {
    RunSolve(job);
  }
}

void CoverageServer::RunSleep(Job& job) {
  // Deterministic latency for tests: sleeps in small slices so a
  // deadline cancels promptly, like a cooperative solver would.
  const auto slice = std::chrono::milliseconds(2);
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(job.request.sleep_ms);
  while (std::chrono::steady_clock::now() < end) {
    if (job.cancel != nullptr && job.cancel->cancelled()) {
      CountOutcome(job.request, kErrDeadlineExceeded);
      solve_latency_.Record(job.admitted.ElapsedMillis());
      job.respond(ErrorResponse(job.request.id, kErrDeadlineExceeded,
                                "deadline expired mid-sleep")
                      .Dump(0));
      return;
    }
    std::this_thread::sleep_for(slice);
  }
  CountOutcome(job.request, "ok");
  solve_latency_.Record(job.admitted.ElapsedMillis());
  job.respond(OkResponse(job.request.id).Dump(0));
}

void CoverageServer::RunSolve(Job& job) {
  std::string cache_error;
  std::shared_ptr<const Instance> instance =
      cache_.Get(job.request.instance, &cache_error);
  if (instance == nullptr) {
    // Distinguish a malformed request (unparseable or out-of-range
    // workload spec — the client's bug) from one naming an unknown
    // workload or absent file (the name's fault): bad_request vs
    // not_found, so clients and dashboards can tell them apart.
    std::string spec_error;
    const bool malformed =
        IsMalformedInstanceSpec(job.request.instance, &spec_error);
    const char* code = malformed ? kErrBadRequest : kErrNotFound;
    CountOutcome(job.request, code);
    solve_latency_.Record(job.admitted.ElapsedMillis());
    job.respond(ErrorResponse(job.request.id, code,
                              "instance '" + job.request.instance +
                                  "': " + cache_error)
                    .Dump(0));
    return;
  }
  RunOptions options;
  options.delta = job.request.delta;
  options.seed = job.request.seed;
  options.coverage_fraction = job.request.coverage_fraction;
  options.threads = job.request.threads;
  options.scan_threads = job.request.scan_threads;
  options.shards = job.request.shards;
  options.kernel = job.request.kernel;
  options.cancel = job.cancel.get();
  if (job.request.scan_threads > 1) {
    std::lock_guard<std::mutex> lock(mu_);
    ++scan_counters_.pipelined_requests;
    scan_counters_.scan_threads_max = std::max<uint64_t>(
        scan_counters_.scan_threads_max, job.request.scan_threads);
  }
  RunResult result =
      RunSolverShared(job.request.solver, *instance, options);
  run_latency_.Record(result.duration_ms);
  solve_latency_.Record(job.admitted.ElapsedMillis());
  if (!result.shard_stats.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++shard_counters_.runs;
    shard_counters_.shards_max = std::max<uint64_t>(
        shard_counters_.shards_max, result.shard_stats.size());
    for (const ShardStat& stat : result.shard_stats) {
      shard_counters_.candidates += stat.candidates;
    }
    shard_counters_.merge_picked += result.merge_stats.picked;
    shard_counters_.merge_duplicates_dropped +=
        result.merge_stats.duplicates_dropped;
  }
  if (!result.ok()) {
    const bool deadline = result.error == kDeadlineExceededError;
    CountOutcome(job.request,
                 deadline ? kErrDeadlineExceeded : kErrSolveFailed);
    job.respond(ErrorResponse(job.request.id,
                              deadline ? kErrDeadlineExceeded
                                       : kErrSolveFailed,
                              result.error)
                    .Dump(0));
    return;
  }
  CountOutcome(job.request, "ok");
  job.respond(SolveResponse(job.request, result).Dump(0));
}

namespace {

JsonValue HistogramJson(const LatencySnapshot& snap) {
  JsonValue out = JsonValue::Object();
  out.Set("count", snap.count);
  out.Set("p50_ms", snap.p50_ms);
  out.Set("p90_ms", snap.p90_ms);
  out.Set("p99_ms", snap.p99_ms);
  out.Set("max_ms", snap.max_ms);
  out.Set("mean_ms", snap.mean_ms);
  return out;
}

}  // namespace

JsonValue CoverageServer::StatsJson() const {
  JsonValue stats = JsonValue::Object();
  stats.Set("uptime_s", uptime_.ElapsedSeconds());
  {
    std::lock_guard<std::mutex> lock(mu_);
    JsonValue requests = JsonValue::Object();
    requests.Set("received", counters_.received);
    requests.Set("ok", counters_.ok);
    requests.Set("bad_request", counters_.bad_request);
    requests.Set("not_found", counters_.not_found);
    requests.Set("queue_full", counters_.queue_full);
    requests.Set("deadline_exceeded", counters_.deadline_exceeded);
    requests.Set("solve_failed", counters_.solve_failed);
    requests.Set("shutting_down", counters_.shutting_down);
    stats.Set("requests", std::move(requests));
    JsonValue queue = JsonValue::Object();
    queue.Set("depth", static_cast<uint64_t>(queue_.size()));
    queue.Set("in_flight", static_cast<uint64_t>(in_flight_));
    queue.Set("capacity", static_cast<uint64_t>(options_.queue_capacity));
    queue.Set("workers", static_cast<uint64_t>(
                             std::max<uint32_t>(1, options_.workers)));
    stats.Set("queue", std::move(queue));
    JsonValue per_solver = JsonValue::Object();
    for (const auto& [name, count] : counters_.per_solver) {
      per_solver.Set(name, count);
    }
    stats.Set("per_solver", std::move(per_solver));
    JsonValue per_instance = JsonValue::Object();
    for (const auto& [name, count] : counters_.per_instance) {
      per_instance.Set(name, count);
    }
    stats.Set("per_instance", std::move(per_instance));
    JsonValue shard = JsonValue::Object();
    shard.Set("runs", shard_counters_.runs);
    shard.Set("shards_max", shard_counters_.shards_max);
    shard.Set("candidates", shard_counters_.candidates);
    shard.Set("merge_picked", shard_counters_.merge_picked);
    shard.Set("merge_duplicates_dropped",
              shard_counters_.merge_duplicates_dropped);
    stats.Set("shard", std::move(shard));
    JsonValue scan = JsonValue::Object();
    scan.Set("pipelined_requests", scan_counters_.pipelined_requests);
    scan.Set("scan_threads_max", scan_counters_.scan_threads_max);
    stats.Set("scan", std::move(scan));
  }
  stats.Set("latency", HistogramJson(solve_latency_.TakeSnapshot()));
  stats.Set("run_latency", HistogramJson(run_latency_.TakeSnapshot()));
  const InstanceCacheStats cache_stats = cache_.Stats();
  JsonValue cache = JsonValue::Object();
  cache.Set("hits", cache_stats.hits);
  cache.Set("misses", cache_stats.misses);
  cache.Set("load_failures", cache_stats.load_failures);
  cache.Set("evictions", cache_stats.evictions);
  cache.Set("resident_bytes", cache_stats.resident_bytes);
  cache.Set("resident_count", cache_stats.resident_count);
  stats.Set("cache", std::move(cache));
  // What `"kernel":"auto"` dispatches to on this host — lets operators
  // confirm the SIMD tier from the stats endpoint alone.
  stats.Set("kernel_isa", KernelIsaName(DetectKernelIsa()));
  return stats;
}

}  // namespace streamcover
