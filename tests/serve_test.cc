// In-process tests for the serve core: request parsing, the bounded
// queue's queue_full rejection, deadline semantics (expired-in-queue
// and fired-mid-solve), cooperative cancellation through RunSolver,
// stats accounting, and graceful shutdown.
//
// Everything runs against CoverageServer directly — the same object
// tools/streamcover_serve.cc wraps in sockets — so these tests cover
// the tentpole contract without touching the network.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/solver_registry.h"
#include "geometry/geom_generators.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "setsystem/binary_io.h"
#include "setsystem/generators.h"
#include "util/cancel_token.h"
#include "util/json.h"
#include "util/rng.h"

namespace streamcover {
namespace {

constexpr const char kSmallInstance[] = "planted:n=300,m=600,k=8";

/// Blocks for the single response line of one request.
std::string Call(CoverageServer& server, const std::string& line) {
  std::promise<std::string> done;
  std::future<std::string> response = done.get_future();
  server.HandleLine(line,
                    [&done](const std::string& text) { done.set_value(text); });
  return response.get();
}

JsonValue ParseResponse(const std::string& line) {
  std::string error;
  auto value = JsonValue::Parse(line, &error);
  EXPECT_TRUE(value.has_value()) << error << " in: " << line;
  return value.has_value() ? std::move(*value) : JsonValue();
}

std::string ErrorCode(const JsonValue& response) {
  return response.At("error").At("code").AsString();
}

// ---------------------------------------------------------------------------
// CancelToken semantics (the deadline primitive under everything else).
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, ManualCancelLatches) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.cancelled());  // monotonic
}

TEST(CancelTokenTest, ZeroBudgetIsAlreadyExpired) {
  CancelToken token = CancelToken::AfterMillis(0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, FutureDeadlineFiresAfterElapsing) {
  CancelToken token = CancelToken::AfterMillis(30);
  EXPECT_FALSE(token.cancelled());
  EXPECT_GT(token.RemainingMillis(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(token.cancelled());
  EXPECT_LT(token.RemainingMillis(), 0);
}

TEST(CancelTokenTest, FiredTokenUnwindsRunSolverWithDeadlineError) {
  // The integration the serve layer depends on: a pre-fired token makes
  // any streaming solver return exactly kDeadlineExceededError — also a
  // geometric one, which polls it in its shape scans.
  Rng rng(11);
  PlantedOptions options;
  options.num_elements = 200;
  options.num_sets = 400;
  options.cover_size = 6;
  Instance planted = Instance::FromPlanted(GeneratePlanted(options, rng),
                                           {"cancel-test", "generated"});
  GeomPlantedOptions geom_options;
  geom_options.num_points = 300;
  geom_options.num_shapes = 600;
  geom_options.cover_size = 6;
  Instance geometric =
      Instance::FromGeometry(GeneratePlantedGeom(geom_options, rng),
                             {"geom-cancel-test", "generated"});
  CancelToken token;
  token.Cancel();
  RunOptions run_options;
  run_options.cancel = &token;
  for (auto [solver, instance] : {std::pair{"iter", &planted},
                                  std::pair{"geom", &geometric}}) {
    RunResult result = RunSolver(solver, *instance, run_options);
    EXPECT_FALSE(result.ok()) << solver;
    EXPECT_EQ(result.error, kDeadlineExceededError) << solver;
  }
}

// ---------------------------------------------------------------------------
// Request parsing.
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, ParsesFullSolveRequest) {
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseServeRequest(
      R"({"op":"solve","id":"r7","instance":"planted:n=100",)"
      R"("solver":"iter","deadline_ms":250,"seed":3,"delta":0.25,)"
      R"("include_cover":true,"threads":2})",
      &request, &error))
      << error;
  EXPECT_EQ(request.op, "solve");
  EXPECT_EQ(request.id, "r7");
  EXPECT_EQ(request.instance, "planted:n=100");
  EXPECT_EQ(request.solver, "iter");
  ASSERT_TRUE(request.deadline_ms.has_value());
  EXPECT_EQ(*request.deadline_ms, 250);
  EXPECT_EQ(request.seed, 3u);
  EXPECT_DOUBLE_EQ(request.delta, 0.25);
  EXPECT_TRUE(request.include_cover);
  EXPECT_EQ(request.threads, 2u);
}

TEST(ServeProtocolTest, RejectsMalformedAndWrongTypes) {
  ServeRequest request;
  std::string error;
  // Not JSON at all.
  EXPECT_FALSE(ParseServeRequest("solve please", &request, &error));
  // A string where a number belongs is a hard error, not a default.
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","seed":"three"})",
      &request, &error));
  // solve without instance/solver is incomplete.
  EXPECT_FALSE(ParseServeRequest(R"({"op":"solve"})", &request, &error));
  // Unknown op.
  EXPECT_FALSE(ParseServeRequest(R"({"op":"dance"})", &request, &error));
}

// ---------------------------------------------------------------------------
// Server behavior.
// ---------------------------------------------------------------------------

TEST(ServeTest, SolveRoundTripAndStats) {
  ServerOptions options;
  options.workers = 2;
  CoverageServer server(options);
  server.Start();

  JsonValue ping = ParseResponse(Call(server, R"({"op":"ping"})"));
  EXPECT_TRUE(ping.At("ok").AsBool());

  JsonValue solve = ParseResponse(Call(
      server, std::string(R"({"op":"solve","id":"s1","instance":")") +
                  kSmallInstance + R"(","solver":"iter"})"));
  EXPECT_TRUE(solve.At("ok").AsBool()) << solve.Dump(0);
  EXPECT_EQ(solve.At("id").AsString(), "s1");
  EXPECT_GT(solve.At("cover_size").AsUint64(), 0u);
  EXPECT_GT(solve.At("duration_ms").AsDouble(), 0);

  // A second solve on the same instance hits the cache.
  ParseResponse(Call(
      server, std::string(R"({"op":"solve","instance":")") +
                  kSmallInstance + R"(","solver":"store_all_greedy"})"));

  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.At("ok").AsBool());
  const JsonValue& requests = stats.At("requests");
  EXPECT_GE(requests.At("ok").AsUint64(), 2u);  // the two solves
  EXPECT_GE(requests.At("received").AsUint64(), 4u);
  EXPECT_EQ(stats.At("cache").At("misses").AsUint64(), 1u);
  EXPECT_GE(stats.At("cache").At("hits").AsUint64(), 1u);
  EXPECT_GE(stats.At("latency").At("count").AsUint64(), 2u);

  server.Shutdown();
}

TEST(ServeTest, UnknownInstanceAndSolverAreDistinctErrors) {
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();

  JsonValue not_found = ParseResponse(Call(
      server, R"({"op":"solve","instance":"nope:n=1","solver":"iter"})"));
  EXPECT_FALSE(not_found.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(not_found), kErrNotFound);

  JsonValue bad_solver = ParseResponse(
      Call(server, std::string(R"({"op":"solve","instance":")") +
                       kSmallInstance + R"(","solver":"nope"})"));
  EXPECT_FALSE(bad_solver.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(bad_solver), kErrSolveFailed);

  JsonValue bad = ParseResponse(Call(server, "not json"));
  EXPECT_EQ(ErrorCode(bad), kErrBadRequest);

  server.Shutdown();
}

TEST(ServeProtocolTest, ShardsFieldIsStrictlyTyped) {
  ServeRequest request;
  std::string error;
  // Valid: integer in range.
  ASSERT_TRUE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"sharded_greedi",)"
      R"("shards":4})",
      &request, &error))
      << error;
  EXPECT_EQ(request.shards, 4u);
  // Absent: keeps the default.
  ASSERT_TRUE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter"})", &request, &error));
  EXPECT_EQ(request.shards, 1u);
  // A string is a type error, not a silent default.
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","shards":"4"})",
      &request, &error));
  // Non-integer number.
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","shards":2.5})",
      &request, &error));
  // Out of range.
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","shards":0})",
      &request, &error));
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","shards":-3})",
      &request, &error));
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","shards":4096})",
      &request, &error));
}

TEST(ServeProtocolTest, ScanThreadsFieldIsStrictlyTyped) {
  ServeRequest request;
  std::string error;
  // Valid: integer in range.
  ASSERT_TRUE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter",)"
      R"("scan_threads":4})",
      &request, &error))
      << error;
  EXPECT_EQ(request.scan_threads, 4u);
  // Absent: keeps the serial default.
  ASSERT_TRUE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter"})", &request, &error));
  EXPECT_EQ(request.scan_threads, 1u);
  // A string is a type error, not a silent default.
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","scan_threads":"4"})",
      &request, &error));
  // Non-integer number.
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","scan_threads":2.5})",
      &request, &error));
  // Out of range.
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","scan_threads":0})",
      &request, &error));
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","scan_threads":-2})",
      &request, &error));
  EXPECT_FALSE(ParseServeRequest(
      R"({"op":"solve","instance":"x","solver":"iter","scan_threads":257})",
      &request, &error));
  EXPECT_NE(error.find("scan_threads"), std::string::npos) << error;
}

TEST(ServeProtocolTest, StaleKernelFieldIsIgnored) {
  // A "kernel" field, of any spelling or type, is ignored like any
  // unknown key: the request parses as it would without it.
  for (const char* kernel : {R"("scalar")", R"("word")", R"("auto")",
                             R"("avx512")", "7"}) {
    SCOPED_TRACE(kernel);
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(ParseServeRequest(
        std::string(R"({"op":"solve","instance":"x","solver":"iter",)") +
            R"("delta":0.25,"kernel":)" + kernel + "}",
        &request, &error))
        << error;
    EXPECT_EQ(request.op, "solve");
    EXPECT_EQ(request.solver, "iter");
    EXPECT_EQ(request.delta, 0.25);
  }
}

TEST(ServeTest, OutOfRangeDeltaAnswersSolveFailedAndKeepsServing) {
  // A delta outside (0, 1], or one whose ceil(1/delta) overflows the
  // solvers' iteration counter, is a solve_failed answer, and the
  // server keeps answering.
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();
  for (const char* delta : {"0", "-1", "2", "1e-300"}) {
    SCOPED_TRACE(delta);
    JsonValue solve = ParseResponse(Call(
        server, std::string(R"({"op":"solve","instance":)") +
                    R"("planted:n=200,m=400,k=5,seed=1","solver":"iter",)" +
                    R"("delta":)" + delta + "}"));
    EXPECT_FALSE(solve.At("ok").AsBool()) << solve.Dump(0);
    EXPECT_EQ(ErrorCode(solve), kErrSolveFailed);
    EXPECT_NE(solve.At("error").At("message").AsString().find("delta"),
              std::string::npos);
    JsonValue ping = ParseResponse(Call(server, R"({"op":"ping"})"));
    EXPECT_TRUE(ping.At("ok").AsBool());
  }
  server.Shutdown();
}

TEST(ServeTest, EmptyUniverseMaxCoverAnswersAndKeepsServing) {
  // `setcover 0 0`: streaming_max_cover's default budget is n, here 0,
  // which used to abort the server. It answers like progressive_greedy,
  // and the server keeps answering.
  const std::string path = ::testing::TempDir() + "/serve_empty_universe.txt";
  std::ofstream(path) << "setcover 0 0\n";
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();
  JsonValue solve = ParseResponse(Call(
      server, std::string(R"({"op":"solve","instance":")") + path +
                  R"(","solver":"streaming_max_cover"})"));
  EXPECT_TRUE(solve.At("ok").AsBool()) << solve.Dump(0);
  EXPECT_TRUE(solve.At("success").AsBool()) << solve.Dump(0);
  EXPECT_EQ(solve.At("cover_size").AsUint64(), 0u);
  EXPECT_EQ(solve.At("passes").AsUint64(), 1u);
  JsonValue ping = ParseResponse(Call(server, R"({"op":"ping"})"));
  EXPECT_TRUE(ping.At("ok").AsBool());
  server.Shutdown();
}

TEST(ServeTest, StatsReportsDetectedKernelIsa) {
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();
  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.At("ok").AsBool());
  const std::string isa = stats.At("kernel_isa").AsString();
  EXPECT_TRUE(isa == "word" || isa == "avx2" || isa == "avx512") << isa;
  server.Shutdown();
}

TEST(ServeTest, ShardedSolveSurfacesShardAndMergeCounters) {
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();

  JsonValue solve = ParseResponse(Call(
      server, std::string(R"({"op":"solve","id":"sh1","instance":")") +
                  kSmallInstance +
                  R"(","solver":"sharded_greedi","shards":4})"));
  ASSERT_TRUE(solve.At("ok").AsBool()) << solve.Dump(0);
  EXPECT_TRUE(solve.At("success").AsBool());
  ASSERT_EQ(solve.At("shards").size(), 4u);
  uint64_t sets_seen = 0;
  for (size_t s = 0; s < 4; ++s) {
    sets_seen += solve.At("shards")[s].At("sets_seen").AsUint64();
  }
  EXPECT_EQ(sets_seen, 600u);  // every set of m=600 lands in one shard
  EXPECT_GT(solve.At("merge").At("candidates").AsUint64(), 0u);
  EXPECT_EQ(solve.At("merge").At("picked").AsUint64(),
            solve.At("cover_size").AsUint64());

  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  const JsonValue& shard = stats.At("shard");
  EXPECT_EQ(shard.At("runs").AsUint64(), 1u);
  EXPECT_EQ(shard.At("shards_max").AsUint64(), 4u);
  EXPECT_GT(shard.At("candidates").AsUint64(), 0u);
  EXPECT_GT(shard.At("merge_picked").AsUint64(), 0u);

  server.Shutdown();
}

TEST(ServeTest, ShardsRejectedBeforeAdmission) {
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();

  JsonValue zero = ParseResponse(Call(
      server, std::string(R"({"op":"solve","instance":")") +
                  kSmallInstance +
                  R"(","solver":"sharded_greedi","shards":0})"));
  EXPECT_FALSE(zero.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(zero), kErrBadRequest);

  JsonValue typed = ParseResponse(Call(
      server, std::string(R"({"op":"solve","instance":")") +
                  kSmallInstance +
                  R"(","solver":"sharded_greedi","shards":"two"})"));
  EXPECT_FALSE(typed.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(typed), kErrBadRequest);

  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  EXPECT_GE(stats.At("requests").At("bad_request").AsUint64(), 2u);

  server.Shutdown();
}

TEST(ServeTest, MalformedInstanceSpecIsBadRequestNotNotFound) {
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();

  // Duplicate key: the spec itself is broken — bad_request.
  JsonValue dup = ParseResponse(Call(
      server,
      R"({"op":"solve","instance":"planted:n=300,n=400","solver":"iter"})"));
  EXPECT_FALSE(dup.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(dup), kErrBadRequest) << dup.Dump(0);

  // Unparseable value: also bad_request.
  JsonValue bad_value = ParseResponse(Call(
      server,
      R"({"op":"solve","instance":"planted:n=abc","solver":"iter"})"));
  EXPECT_FALSE(bad_value.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(bad_value), kErrBadRequest) << bad_value.Dump(0);

  // Params that parse but break the generator's preconditions (k > m)
  // are the request's fault too — and must not take the server down.
  JsonValue out_of_range = ParseResponse(Call(
      server,
      R"({"op":"solve","instance":"planted:n=200,m=4,k=5","solver":"iter"})"));
  EXPECT_FALSE(out_of_range.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(out_of_range), kErrBadRequest) << out_of_range.Dump(0);
  EXPECT_NE(out_of_range.At("error").At("message").AsString().find("m >= k"),
            std::string::npos)
      << out_of_range.Dump(0);
  EXPECT_TRUE(
      ParseResponse(Call(server, R"({"op":"ping"})")).At("ok").AsBool());

  // A bare unknown name is still not_found — nothing malformed about it.
  JsonValue unknown = ParseResponse(Call(
      server, R"({"op":"solve","instance":"no_such","solver":"iter"})"));
  EXPECT_FALSE(unknown.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(unknown), kErrNotFound) << unknown.Dump(0);

  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  EXPECT_GE(stats.At("requests").At("bad_request").AsUint64(), 2u);
  EXPECT_GE(stats.At("requests").At("not_found").AsUint64(), 1u);

  server.Shutdown();
}

TEST(ServeTest, ExpiredInQueueDeadlineAnswersWithoutRunning) {
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();

  // deadline_ms:0 means the budget was spent before admission; the
  // request must be answered deadline_exceeded without solving.
  JsonValue response = ParseResponse(Call(
      server, std::string(R"({"op":"solve","instance":")") +
                  kSmallInstance +
                  R"(","solver":"iter","deadline_ms":0})"));
  EXPECT_FALSE(response.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(response), kErrDeadlineExceeded);

  // Nothing ran: no cache entry was ever loaded.
  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  EXPECT_EQ(stats.At("cache").At("misses").AsUint64(), 0u);

  server.Shutdown();
}

TEST(ServeTest, DeadlineFiresMidSleepCooperatively) {
  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();

  // A 5s sleep under a 50ms deadline must come back deadline_exceeded
  // in far less than 5s — the worker polls the token between slices.
  const auto start = std::chrono::steady_clock::now();
  JsonValue response = ParseResponse(
      Call(server, R"({"op":"sleep","sleep_ms":5000,"deadline_ms":50})"));
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(response.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(response), kErrDeadlineExceeded);
  EXPECT_LT(elapsed_ms, 2000) << "cancellation was not cooperative";

  server.Shutdown();
}

TEST(ServeTest, DeadlineDuringPipelinedDecodeIsDeadlineExceeded) {
  // A disk-backed binary instance big enough that a 1 ms budget expires
  // while the pipelined decode workers are still chewing: they poll the
  // token mid-chunk and the request unwinds with the bare deadline
  // code, never a partial answer or a hang.
  Rng rng(31);
  PlantedOptions popts;
  popts.num_elements = 20000;
  popts.num_sets = 30000;
  popts.cover_size = 12;
  PlantedInstance inst = GeneratePlanted(popts, rng);
  const std::string bin = ::testing::TempDir() + "/serve_pipe.bin";
  std::string werror;
  ASSERT_TRUE(WriteBinarySetSystem(inst.system, bin, &werror)) << werror;

  ServerOptions options;
  options.workers = 1;
  CoverageServer server(options);
  server.Start();

  JsonValue late = ParseResponse(Call(
      server, std::string(R"({"op":"solve","instance":")") + bin +
                  R"(","solver":"iterative_greedy","scan_threads":4,)"
                  R"("deadline_ms":1})"));
  EXPECT_FALSE(late.At("ok").AsBool()) << late.Dump(0);
  EXPECT_EQ(ErrorCode(late), kErrDeadlineExceeded);

  // The same instance with no deadline solves fine pipelined, and the
  // stats surface the scan section.
  JsonValue ok = ParseResponse(Call(
      server, std::string(R"({"op":"solve","instance":")") + bin +
                  R"(","solver":"store_all_greedy","scan_threads":4})"));
  EXPECT_TRUE(ok.At("ok").AsBool()) << ok.Dump(0);

  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.At("ok").AsBool());
  EXPECT_GE(stats.At("scan").At("pipelined_requests").AsUint64(), 1u);
  EXPECT_EQ(stats.At("scan").At("scan_threads_max").AsUint64(), 4u);

  server.Shutdown();
}

TEST(ServeTest, DeadlineFiresMidGeometricSolve) {
  // A geometric solve that runs for seconds unbounded comes back with
  // the bare deadline code from the solver itself (not the queue), and
  // the worker is free again for the next request.
  ServerOptions options;
  options.workers = 2;
  CoverageServer server(options);
  server.Start();

  JsonValue cut = ParseResponse(Call(
      server,
      R"({"op":"solve","instance":"geom_disks:n=20000,m=20000",)"
      R"("solver":"geom","deadline_ms":200})"));
  EXPECT_FALSE(cut.At("ok").AsBool()) << cut.Dump(0);
  EXPECT_EQ(ErrorCode(cut), kErrDeadlineExceeded);
  EXPECT_EQ(cut.At("error").At("message").AsString(), kDeadlineExceededError);
  EXPECT_TRUE(
      ParseResponse(Call(server, R"({"op":"ping"})")).At("ok").AsBool());

  server.Shutdown();
}

TEST(ServeTest, FullQueueRejectsImmediately) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  CoverageServer server(options);
  server.Start();

  // One request occupies the worker, two fill the queue; the rest must
  // be rejected queue_full inline (not buffered, not blocked).
  constexpr int kBlockers = 3;
  constexpr int kOverflow = 4;
  std::vector<std::future<std::string>> slow;
  std::vector<std::promise<std::string>> slow_done(kBlockers);
  auto post_blocker = [&](int i) {
    slow.push_back(slow_done[i].get_future());
    auto* promise = &slow_done[i];
    server.HandleLine(R"({"op":"sleep","sleep_ms":400})",
                      [promise](const std::string& text) {
                        promise->set_value(text);
                      });
  };
  // First blocker, then wait for the worker to dequeue it so the two
  // that follow sit in the queue and fill it exactly.
  post_blocker(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  post_blocker(1);
  post_blocker(2);

  // The worker is busy for another ~300ms and the queue is full: every
  // overflow request must come back queue_full inline, in microseconds.
  int rejected = 0;
  for (int i = 0; i < kOverflow; ++i) {
    JsonValue response =
        ParseResponse(Call(server, R"({"op":"sleep","sleep_ms":400})"));
    if (!response.At("ok").AsBool() &&
        ErrorCode(response) == kErrQueueFull) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, kOverflow - 1) << "queue did not shed load";

  // Control ops bypass the queue even while it is full.
  JsonValue stats = ParseResponse(Call(server, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.At("ok").AsBool());
  EXPECT_GE(stats.At("requests").At("queue_full").AsUint64(),
            static_cast<uint64_t>(rejected));

  for (auto& f : slow) {
    JsonValue done = ParseResponse(f.get());
    EXPECT_TRUE(done.At("ok").AsBool());
  }
  server.Shutdown();
}

TEST(ServeTest, ShutdownDrainsAdmittedWorkThenRejects) {
  ServerOptions options;
  options.workers = 2;
  CoverageServer server(options);
  server.Start();

  // Admit work, then shut down while it is still running: the admitted
  // requests must complete, not be dropped.
  std::vector<std::future<std::string>> admitted;
  std::vector<std::promise<std::string>> done(4);
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(done[i].get_future());
    auto* promise = &done[i];
    server.HandleLine(R"({"op":"sleep","sleep_ms":100})",
                      [promise](const std::string& text) {
                        promise->set_value(text);
                      });
  }
  server.Shutdown();
  for (auto& f : admitted) {
    JsonValue response = ParseResponse(f.get());
    EXPECT_TRUE(response.At("ok").AsBool()) << response.Dump(0);
  }

  // After the drain, new work is refused with shutting_down.
  JsonValue refused =
      ParseResponse(Call(server, R"({"op":"sleep","sleep_ms":1})"));
  EXPECT_FALSE(refused.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(refused), kErrShuttingDown);
}

TEST(ServeTest, DefaultDeadlineAppliesToBareRequests) {
  ServerOptions options;
  options.workers = 1;
  options.default_deadline_ms = 40;
  CoverageServer server(options);
  server.Start();

  JsonValue response = ParseResponse(
      Call(server, R"({"op":"sleep","sleep_ms":5000})"));
  EXPECT_FALSE(response.At("ok").AsBool());
  EXPECT_EQ(ErrorCode(response), kErrDeadlineExceeded);

  server.Shutdown();
}

}  // namespace
}  // namespace streamcover
