// RunPlan / RunReport: grid shape (solvers × workloads × seeds ×
// trials), bit-for-bit seed determinism, per-cell failure recording, and
// the JSON round-trip that the perf trajectory and CI smoke step rely
// on.

#include "core/run_plan.h"

#include <string>

#include "gtest/gtest.h"
#include "util/json.h"

namespace streamcover {
namespace {

RunPlan SmallPlan() {
  RunPlan plan;
  for (const char* solver : {"iter", "store_all_greedy"}) {
    SolverSpec spec;
    spec.solver = solver;
    spec.options.sample_constant = 0.05;
    plan.solvers.push_back(std::move(spec));
  }
  for (const char* workload : {"planted", "sparse", "zipf"}) {
    WorkloadSpec spec;
    spec.workload = workload;
    spec.params.n = 150;
    spec.params.m = 300;
    spec.params.k = 5;
    plan.workloads.push_back(std::move(spec));
  }
  plan.seeds = {1, 2};
  plan.trials = 2;
  return plan;
}

TEST(RunPlanTest, GridShapeAndRunCounts) {
  RunPlan plan = SmallPlan();
  RunReport report = ExecutePlan(plan);
  // One cell per (workload, solver) pair, workload-major.
  ASSERT_EQ(report.cells.size(), 6u);
  EXPECT_EQ(report.cells[0].workload, "planted");
  EXPECT_EQ(report.cells[0].solver, "iter");
  EXPECT_EQ(report.cells[1].solver, "store_all_greedy");
  EXPECT_EQ(report.cells[2].workload, "sparse");
  for (const RunCell& cell : report.cells) {
    // 2 seeds x 2 trials per cell, all succeeding on these tiny planted
    // families.
    EXPECT_EQ(cell.runs, 4u) << cell.solver << " x " << cell.workload;
    EXPECT_EQ(cell.failures, 0u);
    EXPECT_EQ(cell.successes, 4u);
    EXPECT_EQ(cell.Stat("cover_size").count(), 4u);
    EXPECT_GT(cell.Stat("cover_size").mean(), 0.0);
    EXPECT_GE(cell.ratio.mean(), 1.0)
        << "cover can never beat the planted bound's role as OPT proxy "
           "by being zero";
    const double passes = cell.Stat("passes").mean();
    const double sequential = cell.Stat("sequential_scans").mean();
    const double physical = cell.Stat("physical_scans").mean();
    EXPECT_GT(passes, 0.0);
    EXPECT_GE(sequential, passes);
    // Shared-scan collapse: the repository pays at most the sequential
    // total and at least the per-guess max — and for the multiplexed
    // solvers exactly the max.
    EXPECT_GT(physical, 0.0);
    EXPECT_LE(physical, sequential);
    EXPECT_DOUBLE_EQ(physical, passes);
    EXPECT_GT(cell.Stat("space_words").mean(), 0.0);
  }
}

TEST(RunPlanTest, CellLookupByLabels) {
  RunReport report = ExecutePlan(SmallPlan());
  const RunCell* cell = report.FindCell("iter", "zipf");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->solver, "iter");
  EXPECT_EQ(cell->workload, "zipf");
  EXPECT_EQ(report.FindCell("iter", "no-such-workload"), nullptr);
}

TEST(RunPlanTest, SeedDeterminism) {
  // Same plan => identical reports up to wall-clock timing: every
  // algorithmic cell (cover, ratio, passes, scans, space) must be
  // byte-identical; only the measured duration_ms stats may differ
  // between executions.
  auto without_timing = [](const RunReport& report) {
    JsonValue doc = report.ToJson();
    JsonValue cells = JsonValue::Array();
    for (size_t i = 0; i < report.cells.size(); ++i) {
      JsonValue cell = doc.At("cells")[i];
      cell.Set("duration_ms", JsonValue());
      cells.Append(std::move(cell));
    }
    doc.Set("cells", std::move(cells));
    return doc.Dump(2);
  };

  RunPlan plan = SmallPlan();
  RunReport first = ExecutePlan(plan);
  RunReport second = ExecutePlan(plan);
  EXPECT_EQ(without_timing(first), without_timing(second));
  // Timing was measured on every run even though it is excluded from
  // the determinism contract.
  EXPECT_EQ(first.cells[0].Stat("duration_ms").count(),
            first.cells[0].runs);
  EXPECT_GT(first.cells[0].Stat("duration_ms").mean(), 0.0);

  // A different seed axis changes at least the randomized solver cells.
  plan.seeds = {3, 4};
  RunReport shifted = ExecutePlan(plan);
  EXPECT_NE(without_timing(first), without_timing(shifted));
}

TEST(RunPlanTest, GeometricMismatchRecordedPerCell) {
  RunPlan plan;
  SolverSpec solver;
  solver.solver = "geom";
  plan.solvers.push_back(std::move(solver));
  WorkloadSpec workload;
  workload.workload = "planted";
  workload.params.n = 100;
  workload.params.m = 200;
  workload.params.k = 4;
  plan.workloads.push_back(std::move(workload));
  plan.seeds = {1};
  plan.trials = 2;

  RunReport report = ExecutePlan(plan);
  ASSERT_EQ(report.cells.size(), 1u);
  const RunCell& cell = report.cells[0];
  EXPECT_EQ(cell.runs, 0u);
  EXPECT_EQ(cell.failures, 2u);
  ASSERT_FALSE(cell.errors.empty());
  EXPECT_NE(cell.errors[0].find("geometric"), std::string::npos);
  // The identical per-trial error is deduplicated.
  EXPECT_EQ(cell.errors.size(), 1u);
}

TEST(RunPlanTest, UnknownWorkloadRecordedPerCell) {
  RunPlan plan;
  SolverSpec solver;
  solver.solver = "store_all_greedy";
  plan.solvers.push_back(std::move(solver));
  WorkloadSpec workload;
  workload.workload = "no-such-family";
  plan.workloads.push_back(std::move(workload));

  RunReport report = ExecutePlan(plan);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].runs, 0u);
  EXPECT_EQ(report.cells[0].failures, 1u);
  ASSERT_FALSE(report.cells[0].errors.empty());
  EXPECT_NE(report.cells[0].errors[0].find("no-such-family"),
            std::string::npos);
}

TEST(RunPlanTest, JsonRoundTrip) {
  RunReport report = ExecutePlan(SmallPlan());
  const std::string text = report.ToJsonString();

  std::string error;
  std::optional<JsonValue> parsed = JsonValue::Parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->At("schema").AsString(), "streamcover.run_report.v5");
  EXPECT_EQ(parsed->At("solvers").size(), 2u);
  EXPECT_EQ(parsed->At("workloads").size(), 3u);
  EXPECT_EQ(parsed->At("seeds").size(), 2u);
  EXPECT_EQ(parsed->At("trials").AsDouble(), 2.0);
  ASSERT_EQ(parsed->At("cells").size(), report.cells.size());

  // Spot-check a cell: the serialized aggregates match the in-memory
  // report exactly.
  const JsonValue& cell0 = parsed->At("cells")[0];
  EXPECT_EQ(cell0.At("solver").AsString(), report.cells[0].solver);
  EXPECT_EQ(cell0.At("workload").AsString(), report.cells[0].workload);
  EXPECT_DOUBLE_EQ(cell0.At("cover_size").At("mean").AsDouble(),
                   report.cells[0].Stat("cover_size").mean());
  EXPECT_DOUBLE_EQ(cell0.At("physical_scans").At("mean").AsDouble(),
                   report.cells[0].Stat("physical_scans").mean());
  EXPECT_DOUBLE_EQ(cell0.At("space_words").At("max").AsDouble(),
                   report.cells[0].Stat("space_words").max());
  EXPECT_EQ(cell0.At("runs").AsDouble(), 4.0);

  // v5: every number of the run record is aggregated on every cell,
  // for every ok() run — zero-valued counters (projection words of a
  // store-all run) included, never omitted.
  for (size_t i = 0; i < parsed->At("cells").size(); ++i) {
    const JsonValue& cell = parsed->At("cells")[i];
    for (const char* key : {"gain_updates", "sets_touched",
                            "projection_words_peak", "duration_ms"}) {
      ASSERT_TRUE(cell.At(key).is_object()) << i << " " << key;
      EXPECT_EQ(cell.At(key).At("count").AsDouble(), 4.0) << key;
    }
  }
  // The greedy family reports real maintenance work, not zeros: both
  // solvers of SmallPlan end in an exact-greedy loop over the
  // transposed index.
  EXPECT_GT(cell0.At("gain_updates").At("mean").AsDouble(), 0.0);
  EXPECT_GT(cell0.At("sets_touched").At("mean").AsDouble(), 0.0);

  // Dump -> Parse -> Dump is a fixed point.
  EXPECT_EQ(parsed->Dump(2), text);
}

TEST(RunPlanTest, SummaryTableHasOneRowPerCell) {
  RunReport report = ExecutePlan(SmallPlan());
  EXPECT_EQ(report.SummaryTable().num_rows(), report.cells.size());
}

TEST(RunPlanTest, ProjectionProbeThroughRegistry) {
  // The iter_guess option runs iterSetCover's single guess through the
  // registry and surfaces stored-projection words — the bench_tradeoff
  // probe path.
  RunPlan plan;
  SolverSpec probe;
  probe.solver = "iter";
  probe.label = "probe";
  probe.options.sample_constant = 0.05;
  probe.options.iter_guess = 8;
  plan.solvers.push_back(std::move(probe));
  WorkloadSpec workload;
  workload.workload = "planted";
  workload.params.n = 256;
  workload.params.m = 512;
  workload.params.k = 8;
  plan.workloads.push_back(std::move(workload));

  RunReport report = ExecutePlan(plan);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].failures, 0u);
  EXPECT_GT(report.cells[0].Stat("projection_words_peak").mean(), 0.0);
}

}  // namespace
}  // namespace streamcover
