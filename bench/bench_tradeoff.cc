// Theorem 2.8 — the headline pass/space trade-off of iterSetCover:
// 2/delta passes, O~(m n^delta) space, O(rho/delta) approximation.
//
// Two sweeps, both expressed as RunPlan grids over the planted workload:
//  (A) delta sweep at fixed n: passes must equal 2/delta (Lemma 2.1),
//      stored projection words must grow with delta, the cover must stay
//      within the O(rho/delta) envelope, and DIMV14's pass count at the
//      same delta must blow up exponentially while iterSetCover's stays
//      linear in 1/delta.
//  (B) n sweep at fixed delta: the empirical growth exponent of the
//      stored-projection footprint (log-log slope against n) should sit
//      near delta (plus polylog drift), far below the exponent 1 of the
//      store-all baseline.
//
// The projection-space probe runs iterSetCover's k=OPT single guess
// through the registry (RunOptions::iter_guess) — no bespoke call sites.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/run_plan.h"
#include "util/stats.h"
#include "util/table.h"

namespace streamcover {
namespace {

constexpr double kSampleConstant = 0.005;
constexpr uint32_t kPlantedOpt = 8;

WorkloadSpec PlantedWorkload(uint32_t n, std::string label) {
  WorkloadSpec workload;
  workload.workload = "planted";
  workload.label = std::move(label);
  workload.params.n = n;
  workload.params.m = 2 * n;
  workload.params.k = kPlantedOpt;
  return workload;
}

SolverSpec IterSpec(double delta, std::string label, uint64_t guess = 0) {
  SolverSpec spec;
  spec.solver = "iter";
  spec.label = std::move(label);
  spec.options.delta = delta;
  spec.options.sample_constant = kSampleConstant;
  spec.options.iter_guess = guess;
  return spec;
}

void DeltaSweep() {
  benchutil::Banner(
      "Theorem 2.8 (A) — delta sweep, n=4096, m=8192, planted OPT=8");
  const std::vector<double> inv_deltas = {1.0, 2.0, 3.0, 4.0, 5.0};

  RunPlan plan;
  for (double inv_delta : inv_deltas) {
    const double delta = 1.0 / inv_delta;
    const std::string suffix = "1/" + Table::Fmt(static_cast<int>(inv_delta));
    plan.solvers.push_back(IterSpec(delta, "iter d=" + suffix));
    // Projection-space probe: the k=OPT single guess exposes the
    // O~(m n^delta) object of Lemma 2.2.
    plan.solvers.push_back(
        IterSpec(delta, "probe d=" + suffix, kPlantedOpt));
    SolverSpec dimv;
    dimv.solver = "dimv14";
    dimv.label = "dimv14 d=" + suffix;
    dimv.options.delta = delta;
    dimv.options.sample_constant = kSampleConstant;
    plan.solvers.push_back(std::move(dimv));
  }
  plan.workloads.push_back(PlantedWorkload(4096, "planted-4096"));
  plan.seeds = {1, 2, 3};

  RunReport report = ExecutePlan(plan);

  Table table({"delta", "passes iter (=2/d)", "seq scans iter",
               "phys scans iter", "passes DIMV14", "cover/OPT",
               "proj words (k=OPT guess)", "space max-guess"});
  for (double inv_delta : inv_deltas) {
    const std::string suffix = "1/" + Table::Fmt(static_cast<int>(inv_delta));
    const RunCell* iter = report.FindCell("iter d=" + suffix,
                                          "planted-4096");
    const RunCell* probe = report.FindCell("probe d=" + suffix,
                                           "planted-4096");
    const RunCell* dimv = report.FindCell("dimv14 d=" + suffix,
                                          "planted-4096");
    table.AddRow(
        {suffix, Table::Fmt(iter->Stat("passes").mean(), 1),
         Table::Fmt(iter->Stat("sequential_scans").mean(), 1),
         Table::Fmt(iter->Stat("physical_scans").mean(), 1),
         Table::Fmt(dimv->Stat("passes").mean(), 1),
         Table::Fmt(iter->ratio.mean(), 2),
         Table::Fmt(static_cast<uint64_t>(
             probe->Stat("projection_words_peak").mean())),
         Table::Fmt(static_cast<uint64_t>(iter->Stat("space_words").mean()))});
  }
  table.Print(std::cout);
  benchutil::Note(
      "\nexpected shape: iter passes grow linearly in 1/delta, DIMV14 "
      "passes exponentially;\nprojection words shrink as delta shrinks "
      "(the space side of the trade-off);\nphys scans track passes — one "
      "shared scan serves all parallel guesses — while\nseq scans pay "
      "the extra ~log n guess factor.");
}

void NSweep() {
  benchutil::Banner(
      "Theorem 2.8 (B) — n sweep at fixed delta, m=2n, OPT guess k=8");
  const std::vector<uint32_t> ns = {2048u, 4096u, 8192u, 16384u};
  for (double delta : {0.25, 0.5}) {
    RunPlan plan;
    plan.solvers.push_back(IterSpec(delta, "probe", kPlantedOpt));
    for (uint32_t n : ns) {
      plan.workloads.push_back(
          PlantedWorkload(n, "planted-" + Table::Fmt(n)));
    }
    plan.seeds = {1, 2, 3};
    RunReport report = ExecutePlan(plan);

    Table table({"n", "proj words", "proj words / m", "cover/OPT"});
    std::vector<double> xs, ys;
    for (uint32_t n : ns) {
      const RunCell* cell =
          report.FindCell("probe", "planted-" + Table::Fmt(n));
      const double proj = cell->Stat("projection_words_peak").mean();
      xs.push_back(static_cast<double>(n));
      // Normalize by m = 2n to isolate the n^delta factor of
      // O~(m n^delta) from the trivial m factor.
      ys.push_back(proj / (2.0 * static_cast<double>(n)));
      table.AddRow({Table::Fmt(n), Table::Fmt(static_cast<uint64_t>(proj)),
                    Table::Fmt(proj / (2.0 * n), 3),
                    Table::Fmt(cell->ratio.count() > 0 ? cell->ratio.mean()
                                                       : 0.0,
                               2)});
    }
    table.Print(std::cout);
    benchutil::Note(
        "delta=" + Table::Fmt(delta, 2) +
        ": log-log slope of (proj words / m) vs n = " +
        Table::Fmt(LogLogSlope(xs, ys), 3) + "  (target ~ delta = " +
        Table::Fmt(delta, 2) + " up to polylog drift)\n");
  }
}

}  // namespace
}  // namespace streamcover

int main() {
  streamcover::DeltaSweep();
  streamcover::NSweep();
  return 0;
}
