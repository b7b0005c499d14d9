#include "scenario/runner.h"

#include <cstdint>
#include <iostream>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "obs/run_report.h"
#include "workload/registry.h"

namespace wcs::scenario {

namespace {

double elapsed_s(const RunOptions& options) {
  // detlint: nondet-source -- run-harness wall-clock timing, reported as metadata only
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       options.started)
      .count();
}

// --trace-out support: run ONE representative simulation (first scenario
// algorithm, seed 1, Table 1 platform) with full observability and dump
// its Chrome trace. Kept out of the parallel sweep so concurrent runs
// never share a trace file.
std::optional<obs::PhaseProfiler> trace_representative_run(
    const ScenarioSpec& spec, const RunOptions& options,
    const workload::Workload& workload, std::ostream& out,
    std::ostream& err) {
  if (!options.trace_out) return std::nullopt;
  grid::GridConfig config = spec.base_config;
  config.audit = config.audit || options.audit;
  config.obs = obs::Options::all();
  config.obs.trace_path = *options.trace_out;
  config.tiers.seed = 1;
  sched::SchedulerSpec scheduler =
      spec.schedulers.empty() ? spec.points.front().schedulers.front()
                              : spec.schedulers.front();
  err << "  [traced run: " << scheduler.name() << "]\n";
  grid::GridSimulation sim(
      config, workload, sched::make_scheduler(scheduler, &workload.arrivals));
  (void)sim.run();
  out << "\nChrome trace written to " << *options.trace_out << '\n';
  return *sim.observability()->profiler();
}

void write_report(const ScenarioSpec& spec,
                  std::vector<obs::ReportPoint> points,
                  const RunOptions& options, const obs::PhaseProfiler* phases,
                  std::ostream& out) {
  if (!options.report_path) return;
  obs::RunReport report;
  report.bench = spec.name;
  report.title = spec.title;
  report.x_axis = spec.x_axis;
  report.metric = spec.metric_name;
  report.config.tasks = options.tasks;
  report.config.seeds = options.seeds;
  report.config.jobs = options.jobs;
  report.config.fast = options.fast;
  report.config.audit = options.audit;
  report.config.trace = options.trace_out.has_value();
  report.points = std::move(points);
  report.total_wall_seconds = elapsed_s(options);
  report.phases = phases;
  report.write(*options.report_path);
  out << "Run report written to " << *options.report_path << '\n';
}

int run_stats_scenario(const ScenarioSpec& spec, const RunOptions& options,
                       std::ostream& out) {
  const workload::Workload wl = workload::build_workload(spec.workload);
  StatsResult sr = spec.stats(wl.job, out, options.csv_path);

  // No simulations here: the run report records config/wall time plus a
  // placeholder row so the schema-checked artifact set stays complete.
  metrics::AveragedResult row;
  row.scheduler = "workload-stats";
  row.runs = 1;
  obs::ReportPoint pt;
  pt.x = sr.x;
  pt.x_label = sr.x_label;
  pt.wall_seconds = elapsed_s(options);
  pt.rows.push_back(std::move(row));
  write_report(spec, {pt}, options, nullptr, out);
  return 0;
}

}  // namespace

int run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  std::ostream& out = options.out != nullptr ? *options.out : std::cout;
  std::ostream& err = options.err != nullptr ? *options.err : std::cerr;
  workload::register_builtin_generators();  // idempotent

  if (spec.is_stats()) return run_stats_scenario(spec, options, out);

  const workload::Workload base_workload =
      workload::build_workload(spec.workload);
  const std::vector<std::uint64_t> seeds = options.topology_seeds();

  std::vector<obs::ReportPoint> points;
  for (const Point& point : spec.points) {
    grid::GridConfig config = point.config;
    config.audit = config.audit || options.audit;

    // File size and workload overrides live in the catalog, so those
    // axes regenerate the workload per point (same seed: identical
    // task -> file structure; only the overridden knob changes).
    workload::Workload point_workload;
    const bool regenerate = point.file_size || point.workload;
    if (regenerate) {
      workload::GeneratorSpec sized =
          point.workload ? *point.workload : spec.workload;
      if (point.file_size) sized.coadd.file_size = *point.file_size;
      point_workload = workload::build_workload(sized);
    }
    const workload::Workload& wl =
        regenerate ? point_workload : base_workload;

    const std::vector<sched::SchedulerSpec>& schedulers =
        point.schedulers.empty() ? spec.schedulers : point.schedulers;

    obs::ReportPoint pt;
    pt.x = point.x;
    pt.x_label = point.label;
    pt.rows = grid::run_matrix(
        config, wl, schedulers, seeds,
        [&](const std::string& s) {
          err << "  [" << point.label << ": " << s << "]\n";
        },
        options.jobs);
    for (std::size_t i = 0; i < point.row_labels.size(); ++i)
      pt.rows[i].scheduler = point.row_labels[i];
    pt.wall_seconds = elapsed_s(options);
    points.push_back(std::move(pt));
  }

  std::optional<obs::PhaseProfiler> phases =
      trace_representative_run(spec, options, base_workload, out, err);

  for (const obs::ReportPoint& pt : points)
    grid::print_table(out,
                      spec.title + " — " + spec.x_axis + " = " + pt.x_label,
                      pt.rows);

  out << "\nSeries (" << spec.metric_name << " vs " << spec.x_axis << "):\n";
  out << spec.x_axis;
  for (const auto& r : points.front().rows) out << '\t' << r.scheduler;
  out << '\n';
  for (const obs::ReportPoint& pt : points) {
    out << pt.x_label;
    for (const auto& r : pt.rows)
      out << '\t'
          << static_cast<std::uint64_t>(metric_value(spec.metric, r) + 0.5);
    out << '\n';
  }

  if (options.csv_path) {
    CsvWriter csv(*options.csv_path);
    csv.header({spec.x_axis, "algorithm", "makespan_min", "transfers_per_site",
                "total_transfers", "gigabytes", "waiting_h_per_site",
                "transfer_h_per_site", "replicas"});
    for (const obs::ReportPoint& pt : points)
      for (const auto& r : pt.rows)
        csv.row(pt.x_label, r.scheduler, r.makespan_minutes,
                r.transfers_per_site, r.total_file_transfers,
                r.total_gigabytes, r.waiting_hours_per_site,
                r.transfer_hours_per_site, r.replicas_started);
    out << "\nCSV written to " << *options.csv_path << '\n';
  }

  write_report(spec, std::move(points), options,
               phases ? &*phases : nullptr, out);

  if (!spec.notes.empty()) out << '\n' << spec.notes << '\n';
  return 0;
}

}  // namespace wcs::scenario
