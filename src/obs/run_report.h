// Machine-readable run reports (results/bench_<name>.json).
//
// Every bench emits one JSON report per invocation alongside its
// human-readable table and CSV: the bench configuration, one row per
// (sweep point, scheduler) with the paper's headline metrics, a wall-time
// stamp per point (monotone non-decreasing — points complete in order),
// and an optional host-time phase breakdown. This is the schema the
// perf-trajectory tooling consumes, so it is versioned and validated
// (validate_report / tools/report_lint, tested by test_report_schema).
//
// Schema v1 (all units spelled out in key names):
//   schema_version        int, == 1
//   bench                 string, non-empty ("bench_fig5_transfers")
//   title / x_axis / metric  strings
//   config {tasks, seeds, jobs: int >= 1; fast, audit, trace: bool}
//   total_wall_seconds    number >= 0
//   points [ >= 1
//     { x: number, x_label: string non-empty,
//       wall_seconds: number >= 0, non-decreasing across points,
//       schedulers [ >= 1
//         { name: string non-empty, runs: int >= 1,
//           makespan_minutes, transfers_per_site, total_file_transfers,
//           total_gigabytes, waiting_hours_per_site,
//           transfer_hours_per_site, replicas_started: number >= 0 } ] } ]
//   phases                optional array (obs::PhaseProfiler::write_json)
//
// Schema v2 == v1 plus optional per-tenant sections on a scheduler row
// (open-system benches; closed-batch reports emit exactly the v1 row
// shape under schema_version 2):
//   schedulers[i].jain_fairness   number in [0, 1]   (with tenants)
//   schedulers[i].tenants [ >= 1
//     { name: string non-empty, weight: int >= 1, tasks, completed,
//       first_arrival_s, makespan_s, sojourn_mean_s, sojourn_p50_s,
//       sojourn_p95_s, sojourn_p99_s: number >= 0,
//       time_to_first_task_s: number >= -1 (-1 = never assigned) } ]
// and optional block-store dedup fields on a scheduler row (emitted
// together, only when the run actually deduplicated bytes; rows without
// dedup, e.g. at content overlap 0, keep the exact v1 shape):
//   schedulers[i].total_gigabytes_saved   number >= 0
//   schedulers[i].dedup_ratio             number >= 1
// The validator accepts both versions; tenant sections or dedup fields
// under v1 are a violation (they imply v2).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "metrics/results.h"
#include "obs/json.h"
#include "obs/profiler.h"

namespace wcs::obs {

inline constexpr int kReportSchemaVersion = 2;
// Oldest schema validate_report still accepts.
inline constexpr int kMinReportSchemaVersion = 1;

struct ReportPoint {
  double x = 0;
  std::string x_label;
  // Elapsed host seconds since the bench started, sampled when this
  // point finished — monotone across points by construction.
  double wall_seconds = 0;
  // One averaged row per scheduler. The writer emits the schema's keys;
  // AveragedResult fields outside the schema are not written.
  std::vector<metrics::AveragedResult> rows;
};

struct RunReport {
  std::string bench;   // binary name, e.g. "bench_fig5_transfers"
  std::string title;   // human title ("Figure 5: ...")
  std::string x_axis;  // sweep variable name
  std::string metric;  // headline metric name

  struct Config {
    std::size_t tasks = 0;
    std::size_t seeds = 0;
    std::size_t jobs = 0;
    bool fast = false;
    bool audit = false;
    bool trace = false;
  } config;

  std::vector<ReportPoint> points;
  double total_wall_seconds = 0;
  const PhaseProfiler* phases = nullptr;  // optional breakdown

  void write(std::ostream& out) const;
  // Creates parent directories as needed.
  void write(const std::string& path) const;
};

// Returns every schema violation found (empty = valid). Accepts schema
// v1 and v2 run reports; `label` prefixes each message (typically the
// path).
[[nodiscard]] std::vector<std::string> validate_report(
    const JsonValue& doc, const std::string& label = "report");

// Parse + validate one file; I/O and parse errors come back as a single
// violation instead of an exception so lint tools can keep going.
[[nodiscard]] std::vector<std::string> validate_report_file(
    const std::string& path);

}  // namespace wcs::obs
