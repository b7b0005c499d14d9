// Experiment runner: the paper's measurement protocol.
//
// Every data point in Sec. 5 is one (platform config, workload,
// algorithm) triple executed on 5 independently generated topologies and
// averaged. run_averaged() reproduces that; run_matrix() sweeps a list of
// scheduler specs and prints/collects one row per algorithm, which is the
// format of every figure in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "grid/config.h"
#include "grid/grid_simulation.h"
#include "metrics/results.h"
#include "sched/factory.h"
#include "workload/arrivals.h"

namespace wcs::grid {

// The paper runs each experiment on 5 topologies (Sec. 5.2).
[[nodiscard]] std::vector<std::uint64_t> default_topology_seeds();

// Every entry point takes a workload::Workload (job + arrival schedule);
// the paper's closed Coadd batch is a Workload with an empty schedule.
// The scheduler is built workload-aware (sched::make_scheduler(spec,
// &workload.arrivals)) and reads the tenants from the engine: a pull
// scheduler serves several tenants by weighted round robin.

// One run on one topology seed.
[[nodiscard]] metrics::RunResult run_once(const GridConfig& config,
                                          const workload::Workload& workload,
                                          const sched::SchedulerSpec& spec,
                                          std::uint64_t topology_seed);

// All per-seed runs of one spec, in seed order — the raw rows behind
// run_averaged(), for callers that need RunResult fields the averaged
// record drops. `jobs` as in run_averaged().
[[nodiscard]] std::vector<metrics::RunResult> run_seeds(
    const GridConfig& config, const workload::Workload& workload,
    const sched::SchedulerSpec& spec,
    std::span<const std::uint64_t> topology_seeds, std::size_t jobs = 1);

// Mean over the given topology seeds (workload held fixed, as in the
// paper: the Coadd trace does not change between repetitions).
//
// `jobs` is the number of pool threads the independent run_once() calls
// fan out over; 0 or 1 means serial in the caller's thread. Every
// (spec, seed) run is an isolated simulation and results are collected
// in (spec, seed) submission order, so the output is identical at any
// `jobs` level.
[[nodiscard]] metrics::AveragedResult run_averaged(
    const GridConfig& config, const workload::Workload& workload,
    const sched::SchedulerSpec& spec,
    std::span<const std::uint64_t> topology_seeds, std::size_t jobs = 1);

// Runs every spec and returns one averaged row per algorithm, in order.
// `progress` (optional) is invoked with a human-readable note as each
// algorithm finishes — benches use it to stream status (always from the
// caller's thread, in spec order). `jobs` as in run_averaged().
[[nodiscard]] std::vector<metrics::AveragedResult> run_matrix(
    const GridConfig& config, const workload::Workload& workload,
    std::span<const sched::SchedulerSpec> specs,
    std::span<const std::uint64_t> topology_seeds,
    const std::function<void(const std::string&)>& progress = {},
    std::size_t jobs = 1);

// Pretty-prints rows as an aligned table (one column set used by all
// benches: makespan, transfers/site, totals, waits).
void print_table(std::ostream& out, const std::string& title,
                 std::span<const metrics::AveragedResult> rows);

}  // namespace wcs::grid
