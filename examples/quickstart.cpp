// Quickstart: generate a Coadd-like workload, build a grid platform, run
// one worker-centric scheduler, and print the headline metrics.
//
//   ./quickstart [num_tasks] [algorithm]
//
// Algorithms: workqueue, storage-affinity, overlap, rest, combined,
// rest.2, combined.2.
#include <cstdlib>
#include <iostream>
#include <string>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"

using namespace wcs;

namespace {

sched::SchedulerSpec parse_algorithm(const std::string& name) {
  for (const sched::SchedulerSpec& s : sched::SchedulerSpec::paper_algorithms())
    if (s.name() == name) return s;
  if (name == "workqueue") {
    sched::SchedulerSpec s;
    s.algorithm = sched::Algorithm::kWorkqueue;
    return s;
  }
  if (name == "xsufferage") {
    sched::SchedulerSpec s;
    s.algorithm = sched::Algorithm::kXSufferage;
    return s;
  }
  std::cerr << "unknown algorithm '" << name << "'\n";
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t num_tasks = argc > 1 ? std::stoul(argv[1]) : 1000;
  std::string algorithm = argc > 2 ? argv[2] : "rest.2";

  // 1. Workload: a scaled Coadd slice (paper Sec. 5.1).
  workload::CoaddParams wp;
  wp.num_tasks = num_tasks;
  const workload::Workload wl{workload::generate_coadd(wp)};
  workload::JobStats stats = workload::compute_stats(wl.job);
  std::cout << "workload: " << wl.job.name() << " — " << stats.num_tasks
            << " tasks, " << stats.distinct_files << " files, "
            << stats.avg_files_per_task << " files/task avg\n";

  // 2. Platform: paper Table 1 defaults — 10 sites, 1 worker per site,
  // 6,000-file data servers.
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.tiers.workers_per_site = 1;
  config.capacity_files = 6000;
  config.tiers.seed = 1;

  // 3. Run one simulation.
  sched::SchedulerSpec spec = parse_algorithm(algorithm);
  grid::GridSimulation sim(config, wl, sched::make_scheduler(spec));
  metrics::RunResult result = sim.run();

  std::cout << "algorithm: " << result.scheduler << '\n'
            << "makespan:  " << result.makespan_minutes() << " minutes\n"
            << "transfers: " << result.total_file_transfers() << " ("
            << result.transfers_per_site() << " per site, "
            << result.total_bytes_transferred() / 1e9 << " GB)\n"
            << "cache hits: " << result.total_cache_hits() << '\n'
            << "evictions: " << result.total_evictions() << '\n'
            << "events:    " << result.events_executed << '\n';
  return 0;
}
