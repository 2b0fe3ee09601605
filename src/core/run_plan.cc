#include "core/run_plan.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "core/instance.h"
#include "core/run_record.h"

namespace streamcover {
namespace {

void RecordError(RunCell& cell, const std::string& error) {
  ++cell.failures;
  if (std::find(cell.errors.begin(), cell.errors.end(), error) ==
      cell.errors.end()) {
    cell.errors.push_back(error);
  }
}

/// Adds every top-level number of `record` to the cell's stats under
/// its key.
void AddRecord(RunCell& cell, const JsonValue& record) {
  for (const auto& [key, value] : record.members()) {
    if (!value.is_number()) continue;
    auto it = std::find_if(cell.stats.begin(), cell.stats.end(),
                           [&key](const auto& stat) {
                             return stat.first == key;
                           });
    if (it == cell.stats.end()) {
      it = cell.stats.emplace(cell.stats.end(), key, RunningStats());
    }
    it->second.Add(value.AsDouble());
  }
}

JsonValue StatsJson(const RunningStats& stats) {
  if (stats.count() == 0) return JsonValue();
  JsonValue out = JsonValue::Object();
  out.Set("mean", stats.mean());
  out.Set("min", stats.min());
  out.Set("max", stats.max());
  out.Set("count", static_cast<uint64_t>(stats.count()));
  return out;
}

JsonValue OptionsJson(const RunOptions& options) {
  JsonValue out = JsonValue::Object();
  out.Set("delta", options.delta);
  out.Set("sample_constant", options.sample_constant);
  out.Set("coverage_fraction", options.coverage_fraction);
  out.Set("threshold_passes",
          static_cast<uint64_t>(options.threshold_passes));
  out.Set("max_cover_budget",
          static_cast<uint64_t>(options.max_cover_budget));
  out.Set("threads", static_cast<uint64_t>(options.threads));
  out.Set("scan_threads", static_cast<uint64_t>(options.scan_threads));
  out.Set("shards", static_cast<uint64_t>(options.shards));
  if (options.iter_guess > 0) out.Set("iter_guess", options.iter_guess);
  return out;
}

JsonValue ParamsJson(const WorkloadParams& params) {
  JsonValue out = JsonValue::Object();
  out.Set("n", static_cast<uint64_t>(params.n));
  out.Set("m", static_cast<uint64_t>(params.m));
  out.Set("k", static_cast<uint64_t>(params.k));
  out.Set("max_set_size", static_cast<uint64_t>(params.max_set_size));
  out.Set("alpha", params.alpha);
  out.Set("levels", static_cast<uint64_t>(params.levels));
  if (!params.path.empty()) out.Set("path", params.path);
  return out;
}

std::string FmtMean(const RunningStats& stats, int precision) {
  return stats.count() > 0 ? Table::Fmt(stats.mean(), precision)
                           : std::string("-");
}

}  // namespace

RunReport ExecutePlan(const RunPlan& plan, const CancelToken* cancel) {
  RunReport report;
  report.plan = plan;
  report.cells.resize(plan.workloads.size() * plan.solvers.size());
  for (size_t j = 0; j < plan.workloads.size(); ++j) {
    for (size_t i = 0; i < plan.solvers.size(); ++i) {
      RunCell& cell = report.cells[j * plan.solvers.size() + i];
      cell.solver = plan.solvers[i].DisplayLabel();
      cell.workload = plan.workloads[j].DisplayLabel();
    }
  }

  const uint32_t trials = std::max(1u, plan.trials);
  for (size_t j = 0; j < plan.workloads.size(); ++j) {
    const WorkloadSpec& workload = plan.workloads[j];
    for (uint64_t seed : plan.seeds) {
      WorkloadParams params = workload.params;
      params.seed = seed;
      std::string build_error;
      std::optional<Instance> instance =
          MakeWorkload(workload.workload, params, &build_error);
      if (!instance.has_value()) {
        for (size_t i = 0; i < plan.solvers.size(); ++i) {
          RecordError(report.cells[j * plan.solvers.size() + i],
                      build_error);
        }
        continue;
      }
      for (size_t i = 0; i < plan.solvers.size(); ++i) {
        const SolverSpec& solver = plan.solvers[i];
        RunCell& cell = report.cells[j * plan.solvers.size() + i];
        for (uint32_t trial = 0; trial < trials; ++trial) {
          // A fired token (the CLI's SIGINT path) stops the sweep at
          // the next run boundary; the partial report is still valid.
          if (cancel != nullptr && cancel->cancelled()) return report;
          RunOptions options = solver.options;
          options.seed = seed * trials + trial;
          options.cancel = cancel;
          // Each trial draws a fresh pass-counted stream inside
          // RunSolver(Instance&) — this is the structural fix for the
          // old shared-SetStream / ResetPassCount pattern.
          RunResult r = RunSolver(solver.solver, *instance, options);
          if (!r.ok()) {
            RecordError(cell, r.error);
            continue;
          }
          ++cell.runs;
          if (r.success) ++cell.successes;
          // Ratio only over successful runs: a failed trial's partial
          // cover is small for the wrong reason and would understate
          // the approximation cost.
          if (r.success && instance->opt_bound() > 0) {
            cell.ratio.Add(static_cast<double>(r.cover.size()) /
                           static_cast<double>(instance->opt_bound()));
          }
          AddRecord(cell, RunResultJson(r, /*include_cover=*/false));
        }
      }
    }
  }
  return report;
}

const RunCell* RunReport::FindCell(std::string_view solver_label,
                                   std::string_view workload_label) const {
  for (const RunCell& cell : cells) {
    if (cell.solver == solver_label && cell.workload == workload_label) {
      return &cell;
    }
  }
  return nullptr;
}

const RunningStats& RunCell::Stat(std::string_view key) const {
  static const RunningStats kEmpty;
  for (const auto& [name, stat] : stats) {
    if (name == key) return stat;
  }
  return kEmpty;
}

JsonValue RunReport::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("schema", "streamcover.run_report.v6");

  JsonValue solvers = JsonValue::Array();
  for (const SolverSpec& spec : plan.solvers) {
    JsonValue s = JsonValue::Object();
    s.Set("label", spec.DisplayLabel());
    s.Set("solver", spec.solver);
    s.Set("options", OptionsJson(spec.options));
    solvers.Append(std::move(s));
  }
  out.Set("solvers", std::move(solvers));

  JsonValue workloads = JsonValue::Array();
  for (const WorkloadSpec& spec : plan.workloads) {
    JsonValue w = JsonValue::Object();
    w.Set("label", spec.DisplayLabel());
    w.Set("workload", spec.workload);
    w.Set("params", ParamsJson(spec.params));
    workloads.Append(std::move(w));
  }
  out.Set("workloads", std::move(workloads));

  JsonValue seeds = JsonValue::Array();
  for (uint64_t seed : plan.seeds) seeds.Append(seed);
  out.Set("seeds", std::move(seeds));
  out.Set("trials", static_cast<uint64_t>(std::max(1u, plan.trials)));

  JsonValue cell_array = JsonValue::Array();
  for (const RunCell& cell : cells) {
    JsonValue c = JsonValue::Object();
    c.Set("solver", cell.solver);
    c.Set("workload", cell.workload);
    c.Set("runs", static_cast<uint64_t>(cell.runs));
    c.Set("failures", static_cast<uint64_t>(cell.failures));
    c.Set("successes", static_cast<uint64_t>(cell.successes));
    c.Set("ratio", StatsJson(cell.ratio));
    for (const auto& [key, stat] : cell.stats) c.Set(key, StatsJson(stat));
    if (!cell.errors.empty()) {
      JsonValue errors = JsonValue::Array();
      for (const std::string& error : cell.errors) errors.Append(error);
      c.Set("errors", std::move(errors));
    }
    cell_array.Append(std::move(c));
  }
  out.Set("cells", std::move(cell_array));
  return out;
}

bool RunReport::WriteJsonFile(const std::string& path,
                              std::string* error) const {
  std::ofstream os(path);
  if (!os) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  os << ToJsonString() << "\n";
  os.flush();
  if (!os) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

Table RunReport::SummaryTable() const {
  Table table({"workload", "solver", "cover", "cover/OPT", "passes",
               "seq scans", "phys scans", "space (words)", "ok"});
  for (const RunCell& cell : cells) {
    const RunningStats& space = cell.Stat("space_words");
    table.AddRow(
        {cell.workload, cell.solver, FmtMean(cell.Stat("cover_size"), 1),
         FmtMean(cell.ratio, 2), FmtMean(cell.Stat("passes"), 1),
         FmtMean(cell.Stat("sequential_scans"), 1),
         FmtMean(cell.Stat("physical_scans"), 1),
         space.count() > 0
             ? Table::Fmt(static_cast<uint64_t>(space.mean()))
             : std::string("-"),
         std::to_string(cell.successes) + "/" + std::to_string(cell.runs)});
  }
  return table;
}

}  // namespace streamcover
