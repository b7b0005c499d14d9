// Declarative scenario registry.
//
// A ScenarioSpec is a plain data description of one paper figure/table
// experiment: the workload, the sweep axis (one GridConfig per point),
// the scheduler set, and the headline metric. The wcs_bench program
// looks a spec up by name and hands it to the runner
// (scenario/runner.h); the catalog of every paper figure/table plus the
// ablation and extension studies lives in scenario/catalog.h.
//
// Because sweep axes depend on run options (--fast shrinks them, --tasks
// resizes the workload), the registry stores BUILDERS: functions from
// BuildOptions to ScenarioSpec. Builders are pure — building a spec runs
// no simulation — so `--dump-scenario` can print exactly what would run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.h"
#include "grid/config.h"
#include "metrics/results.h"
#include "sched/factory.h"
#include "workload/registry.h"

namespace wcs::scenario {

// The headline metric a figure plots (the series column of the console
// output and the `metric` field of the run report).
enum class Metric {
  kMakespanMinutes,
  kTransfersPerSite,
  kWaitingHoursPerSite,
};

[[nodiscard]] const char* to_string(Metric metric);
[[nodiscard]] double metric_value(Metric metric,
                                  const metrics::AveragedResult& row);

// One sweep point: an x value and the platform it runs on.
struct Point {
  double x = 0;
  std::string label;  // x_label in tables, series, and the report
  grid::GridConfig config;

  // Regenerate the workload with this file size for this point (same
  // seed: identical task -> file structure, new sizes). Figure 8 only.
  std::optional<Bytes> file_size;

  // Per-point workload override (open-system sweeps vary the arrival
  // process / offered load / tenant roster per point); empty = the
  // spec-level workload.
  std::optional<workload::GeneratorSpec> workload;

  // Per-point scheduler override; empty = the spec-level set. Used when
  // the "rows" of a point are variants rather than algorithms (e.g. the
  // replication extension pairs each spec with a platform change).
  std::vector<sched::SchedulerSpec> schedulers;

  // Optional row renames, parallel to the effective scheduler list (e.g.
  // "rest.2 +data-repl"); empty = the specs' own names.
  std::vector<std::string> row_labels;
};

// Workload-stats scenarios (Figure 3 / Table 2) run no simulations: the
// stats callback prints the analysis and returns the placeholder (x,
// x_label) for the schema-checked run report.
struct StatsResult {
  double x = 0;
  std::string x_label;
};

struct ScenarioSpec {
  std::string name;   // registry key, e.g. "fig5_transfers"
  std::string title;  // human title, e.g. "Figure 5: ..."
  std::string x_axis;
  Metric metric = Metric::kMakespanMinutes;
  std::string metric_name;  // human label, e.g. "makespan (minutes)"

  // Base workload description (builders bake BuildOptions::tasks in, so
  // a dumped spec shows the workload that would actually run). Selects a
  // generator from the workload registry (workload/registry.h); the
  // default is the closed synthetic Coadd bag. Open-system scenarios set
  // workload.open (tenants + arrival process) and run through the
  // arrival-aware engine path.
  workload::GeneratorSpec workload;

  // The algorithm set, one table/series row per spec (paper order).
  std::vector<sched::SchedulerSpec> schedulers;

  std::vector<Point> points;

  // Platform for the --trace-out representative run (Table 1 defaults).
  grid::GridConfig base_config;

  // Optional trailing interpretation paragraph ("reading: ...").
  std::string notes;

  // Non-null for workload-stats scenarios; `csv_path` is the --csv
  // destination (stats scenarios own their CSV schema).
  std::function<StatsResult(const workload::Job& job, std::ostream& out,
                            const std::optional<std::string>& csv_path)>
      stats;

  [[nodiscard]] bool is_stats() const { return static_cast<bool>(stats); }
};

// Options a builder may shape the spec by. `fast` coarsens sweep axes
// (fewer points), exactly like the old per-bench --fast behaviour;
// `tasks` is the workload slice size (already capped by --fast).
struct BuildOptions {
  std::size_t tasks = 6000;
  bool fast = false;
};

using Builder = std::function<ScenarioSpec(const BuildOptions&)>;

// --- Registry ----------------------------------------------------------
// Names are unique; registration order is the --list-scenarios order.

void register_scenario(const std::string& name, const std::string& summary,
                       Builder builder);

[[nodiscard]] bool has_scenario(const std::string& name);

// All registered names, in registration order.
[[nodiscard]] std::vector<std::string> scenario_names();

// One-line summary for --list-scenarios. The name must exist.
[[nodiscard]] const std::string& scenario_summary(const std::string& name);

// Builds the named spec. WCS_CHECKs that the name exists and that the
// built spec is well-formed (name matches, points or stats present).
[[nodiscard]] ScenarioSpec build_scenario(const std::string& name,
                                          const BuildOptions& options);

}  // namespace wcs::scenario
