// The benchmark's workloads. Each is a generator spec (driven by the
// benchmark's --seed) plus the simulations one pass runs over the
// workload it generates; the simulator only ever sees the generated
// workload::Workload. Why each workload exists is in README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/config.h"
#include "sched/factory.h"
#include "workload/registry.h"

namespace perfbench {

// The seed whose outputs output_check.cc pins.
inline constexpr std::uint64_t kDefaultSeed = 42;

struct SimCase {
  wcs::grid::GridConfig config;
  wcs::sched::SchedulerSpec scheduler;
};

struct WorkloadCase {
  std::string name;
  wcs::workload::GeneratorSpec generator;
  std::vector<SimCase> sims;
  // Wall seconds one pass, with its set-up-only samples, takes on the
  // reference machine. The pass count of a run is --seconds /
  // pass_cost_s, a constant per workload, so every build measures the
  // same amount of work.
  double pass_cost_s = 1.0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for a name not in workload_names().
[[nodiscard]] WorkloadCase make_workload(const std::string& name,
                                         std::uint64_t seed);

}  // namespace perfbench
