// RunResultJson is the one record of a run (core/run_record.h). For
// every registry solver (geom on a geometric workload): the record
// carries each RunResult field with its value, serve's solve response
// is the id/ok envelope plus the record, a one-run sweep cell holds
// min = max = the record's value for every number in it, and the CLI
// line carries every top-level scalar except instance and duration_ms.

#include "core/run_record.h"

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/run_plan.h"
#include "core/workload_registry.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "util/json.h"

namespace streamcover {
namespace {

/// One registry solver's run, with the spec it ran on.
struct SolverRun {
  std::string solver;
  WorkloadSpec workload;
  RunOptions options;
  RunResult result;
};

/// Every registry solver once, at the seed a one-seed, one-trial plan
/// gives its run (1), with two shards so sharded_greedi reports shard
/// rows and a merge.
std::vector<SolverRun> RunEverySolver() {
  std::vector<SolverRun> runs;
  for (const SolverRegistry::Entry* entry :
       SolverRegistry::Global().Entries()) {
    SolverRun run;
    run.solver = entry->name;
    run.workload.workload =
        entry->kind == SolverRegistry::Kind::kGeometric ? "geom_disks"
                                                        : "planted";
    run.workload.params.n = 200;
    run.workload.params.m = 400;
    run.workload.params.k = 5;
    run.workload.params.seed = 1;
    run.options.seed = 1;
    run.options.shards = 2;
    std::string error;
    std::optional<Instance> instance =
        MakeWorkload(run.workload.workload, run.workload.params, &error);
    EXPECT_TRUE(instance.has_value()) << error;
    if (!instance.has_value()) continue;
    run.result = RunSolver(run.solver, *instance, run.options);
    EXPECT_TRUE(run.result.ok()) << run.solver << ": " << run.result.error;
    runs.push_back(std::move(run));
  }
  return runs;
}

/// A counter key holds `value` as a JSON integer.
void ExpectCounter(const JsonValue& object, const char* key,
                   uint64_t value) {
  const JsonValue* field = object.Find(key);
  ASSERT_NE(field, nullptr) << key;
  EXPECT_EQ(field->AsUint64(), value) << key;
  EXPECT_EQ(field->Dump(0), std::to_string(value)) << key;
}

TEST(RunRecordTest, RecordCarriesEveryRunResultField) {
  bool saw_shards = false;
  for (const SolverRun& run : RunEverySolver()) {
    SCOPED_TRACE(run.solver);
    const RunResult& r = run.result;
    const JsonValue record = RunResultJson(r, /*include_cover=*/true);
    EXPECT_EQ(record.At("solver").AsString(), r.solver);
    EXPECT_EQ(record.At("instance").AsString(), r.instance);
    ASSERT_TRUE(record.At("success").is_bool());
    EXPECT_EQ(record.At("success").AsBool(), r.success);
    ExpectCounter(record, "cover_size", r.cover.size());
    ExpectCounter(record, "passes", r.passes);
    ExpectCounter(record, "sequential_scans", r.sequential_scans);
    ExpectCounter(record, "physical_scans", r.physical_scans);
    ExpectCounter(record, "space_words", r.space_words);
    ExpectCounter(record, "projection_words_peak", r.projection_words_peak);
    ExpectCounter(record, "gain_updates", r.gain_updates);
    ExpectCounter(record, "sets_touched", r.sets_touched);
    EXPECT_EQ(record.At("duration_ms").AsDouble(), r.duration_ms);

    ASSERT_EQ(record.At("cover").size(), r.cover.size());
    for (size_t i = 0; i < r.cover.size(); ++i) {
      EXPECT_EQ(record.At("cover")[i].AsUint64(), r.cover.set_ids[i]);
    }
    EXPECT_EQ(RunResultJson(r, /*include_cover=*/false).Find("cover"),
              nullptr);

    if (r.shard_stats.empty()) {
      EXPECT_EQ(record.Find("shards"), nullptr);
      EXPECT_EQ(record.Find("merge"), nullptr);
      continue;
    }
    saw_shards = true;
    const JsonValue& shards = record.At("shards");
    ASSERT_EQ(shards.size(), r.shard_stats.size());
    for (size_t i = 0; i < shards.size(); ++i) {
      const ShardStat& stat = r.shard_stats[i];
      ExpectCounter(shards[i], "shard", stat.shard);
      ExpectCounter(shards[i], "sets_seen", stat.sets_seen);
      ExpectCounter(shards[i], "candidates", stat.candidates);
      ExpectCounter(shards[i], "inserts", stat.inserts);
      ExpectCounter(shards[i], "work_items", stat.work_items);
    }
    const JsonValue& merge = record.At("merge");
    ExpectCounter(merge, "candidates", r.merge_stats.candidates);
    ExpectCounter(merge, "duplicates_dropped",
                  r.merge_stats.duplicates_dropped);
    ExpectCounter(merge, "picked", r.merge_stats.picked);
    EXPECT_EQ(merge.At("duration_ms").AsDouble(),
              r.merge_stats.duration_ms);
  }
  EXPECT_TRUE(saw_shards) << "no registry solver reported shard rows";
}

TEST(RunRecordTest, SolveResponseIsTheEnvelopePlusTheRecord) {
  for (const SolverRun& run : RunEverySolver()) {
    SCOPED_TRACE(run.solver);
    for (const bool include_cover : {false, true}) {
      ServeRequest request;
      request.id = "r1";
      request.include_cover = include_cover;
      const JsonValue response = SolveResponse(request, run.result);
      const JsonValue record = RunResultJson(run.result, include_cover);
      const auto& members = response.members();
      ASSERT_EQ(members.size(), record.members().size() + 2);
      EXPECT_EQ(members[0].first, "id");
      EXPECT_EQ(members[0].second.AsString(), "r1");
      EXPECT_EQ(members[1].first, "ok");
      EXPECT_TRUE(members[1].second.AsBool());
      for (size_t i = 0; i < record.members().size(); ++i) {
        EXPECT_EQ(members[i + 2].first, record.members()[i].first);
        EXPECT_EQ(members[i + 2].second.Dump(0),
                  record.members()[i].second.Dump(0))
            << members[i + 2].first;
      }
    }
    // An empty id is left out of the envelope.
    EXPECT_EQ(SolveResponse(ServeRequest{}, run.result).Find("id"),
              nullptr);
  }
}

TEST(RunRecordTest, OneRunCellHoldsEveryNumberOfTheRecord) {
  for (const SolverRun& run : RunEverySolver()) {
    SCOPED_TRACE(run.solver);
    RunPlan plan;
    plan.solvers.push_back({run.solver, "", run.options});
    plan.workloads.push_back(run.workload);
    plan.seeds = {1};
    plan.trials = 1;
    const RunReport report = ExecutePlan(plan);
    ASSERT_EQ(report.cells.size(), 1u);
    const RunCell& cell = report.cells[0];
    ASSERT_EQ(cell.runs, 1u) << (cell.errors.empty() ? "" : cell.errors[0]);
    const JsonValue json_cell = report.ToJson().At("cells")[0];

    std::vector<std::string> numbers;
    const JsonValue record = RunResultJson(run.result, false);
    for (const auto& [key, value] : record.members()) {
      if (!value.is_number()) {
        EXPECT_EQ(cell.Stat(key).count(), 0u) << key;
        continue;
      }
      numbers.push_back(key);
      const RunningStats& stat = cell.Stat(key);
      ASSERT_EQ(stat.count(), 1u) << key;
      EXPECT_EQ(stat.min(), stat.max()) << key;
      EXPECT_EQ(json_cell.At(key).At("min").AsDouble(), stat.min()) << key;
      EXPECT_EQ(json_cell.At(key).At("max").AsDouble(), stat.max()) << key;
      // The plan's run repeats this one; only its wall clock differs.
      if (key != "duration_ms") EXPECT_EQ(stat.min(), value.AsDouble()) << key;
    }
    std::vector<std::string> cell_keys;
    for (const auto& [key, stat] : cell.stats) cell_keys.push_back(key);
    EXPECT_EQ(cell_keys, numbers);
  }
}

TEST(RunRecordTest, CliLineCarriesEveryScalarButInstanceAndDuration) {
  for (const SolverRun& run : RunEverySolver()) {
    SCOPED_TRACE(run.solver);
    const RunResult& r = run.result;
    const JsonValue record = RunResultJson(r, /*include_cover=*/true);
    std::vector<std::pair<std::string, std::string>> fields;
    std::istringstream words(RunRecordLine(record));
    for (std::string word; words >> word;) {
      const size_t eq = word.find('=');
      ASSERT_NE(eq, std::string::npos) << word;
      fields.emplace_back(word.substr(0, eq), word.substr(eq + 1));
    }
    const std::vector<std::pair<std::string, std::string>> expect = {
        {"solver", r.solver},
        {"success", r.success ? "true" : "false"},
        {"cover_size", std::to_string(r.cover.size())},
        {"passes", std::to_string(r.passes)},
        {"sequential_scans", std::to_string(r.sequential_scans)},
        {"physical_scans", std::to_string(r.physical_scans)},
        {"space_words", std::to_string(r.space_words)},
        {"projection_words_peak", std::to_string(r.projection_words_peak)},
        {"gain_updates", std::to_string(r.gain_updates)},
        {"sets_touched", std::to_string(r.sets_touched)},
    };
    EXPECT_EQ(fields, expect);
    // The line is every top-level scalar of the record but the two.
    size_t scalars = 0;
    for (const auto& [key, value] : record.members()) {
      if (!value.is_array() && !value.is_object()) ++scalars;
    }
    EXPECT_EQ(fields.size() + 2, scalars);
  }
}

}  // namespace
}  // namespace streamcover
