// Scenario runner: executes a ScenarioSpec under the paper's measurement
// protocol (5 topology seeds, averaged rows, run_matrix fan-out) and
// emits the standard artifact set: per-point tables, the headline-metric
// series, optional CSV, the machine-readable run report (obs::RunReport
// schema v2; open-system scenarios add per-tenant sections), and an
// optional Chrome trace of one representative run.
//
// This is the engine behind wcs_bench; the CLI wrapper
// (scenario/cli.h) parses the shared flag set into RunOptions.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "scenario/scenario.h"

namespace wcs::scenario {

struct RunOptions {
  std::size_t seeds = 5;  // topology repetitions (Sec. 5.2)
  std::size_t jobs = ThreadPool::default_concurrency();
  std::optional<std::string> csv_path;
  bool audit = false;  // sticky: can only turn auditing on
  std::optional<std::string> report_path;  // none = reporting disabled
  std::optional<std::string> trace_out;    // Chrome trace destination

  std::ostream* out = nullptr;  // tables/series; null = std::cout
  std::ostream* err = nullptr;  // progress stream; null = std::cerr

  // Run-report config echo (the runner does not re-derive these from the
  // spec so the report matches what the user asked for on the CLI).
  std::size_t tasks = 6000;
  bool fast = false;

  std::chrono::steady_clock::time_point started =  // detlint: nondet-source -- run-harness wall-clock timing, reported as metadata only
      std::chrono::steady_clock::now();  // detlint: nondet-source -- run-harness wall-clock timing, reported as metadata only

  [[nodiscard]] std::vector<std::uint64_t> topology_seeds() const {
    std::vector<std::uint64_t> s;
    for (std::uint64_t i = 1; i <= seeds; ++i) s.push_back(i);
    return s;
  }
};

// Runs the scenario to completion; returns a process exit code (0 on
// success). Simulation output is deterministic for fixed options; wall
// clocks and progress lines are host-dependent.
int run_scenario(const ScenarioSpec& spec, const RunOptions& options);

}  // namespace wcs::scenario
