// Full paper campaign on one command: runs all six Sec. 5.3 algorithms on
// the Table 1 default platform over 5 topologies, prints the comparison
// table, and exports both the workload trace and a CSV of results — the
// same artifacts a user would keep from a real scheduling study.
//
//   ./coadd_campaign [num_tasks] [output_prefix]
#include <iostream>
#include <string>

#include "common/csv.h"
#include "grid/experiment.h"
#include "workload/coadd.h"
#include "workload/trace.h"

using namespace wcs;

int main(int argc, char** argv) {
  std::size_t num_tasks = argc > 1 ? std::stoul(argv[1]) : 1500;
  std::string prefix = argc > 2 ? argv[2] : "campaign";

  workload::CoaddParams wp = workload::CoaddParams::paper_6000();
  wp.num_tasks = num_tasks;
  const workload::Workload wl{workload::generate_coadd(wp)};
  workload::save_job(wl.job, prefix + "_workload.trace");
  std::cout << "workload trace saved to " << prefix << "_workload.trace\n";

  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.tiers.workers_per_site = 1;
  config.capacity_files = 6000;

  auto specs = sched::SchedulerSpec::paper_algorithms();
  auto seeds = grid::default_topology_seeds();
  auto rows = grid::run_matrix(config, wl, specs, seeds,
                               [](const std::string& s) {
                                 std::cerr << "  [" << s << "]\n";
                               });

  grid::print_table(std::cout,
                    "Coadd campaign (" + std::to_string(num_tasks) +
                        " tasks, Table 1 platform, 5 topologies)",
                    rows);

  CsvWriter csv(prefix + "_results.csv");
  csv.header({"algorithm", "makespan_min", "makespan_min_best",
              "makespan_min_worst", "transfers_per_site", "gigabytes",
              "replicas"});
  for (const auto& r : rows)
    csv.row(r.scheduler, r.makespan_minutes, r.makespan_minutes_min,
            r.makespan_minutes_max, r.transfers_per_site, r.total_gigabytes,
            r.replicas_started);
  std::cout << "results CSV saved to " << prefix << "_results.csv\n";

  // Headline comparison, the paper's conclusion in one line.
  const auto& sa = rows[0];
  double best_wc = rows[1].makespan_minutes;
  std::string best_name = rows[1].scheduler;
  for (std::size_t i = 2; i < rows.size(); ++i)
    if (rows[i].makespan_minutes < best_wc) {
      best_wc = rows[i].makespan_minutes;
      best_name = rows[i].scheduler;
    }
  std::cout << "\nbest worker-centric (" << best_name << ") vs task-centric: "
            << best_wc << " vs " << sa.makespan_minutes << " minutes ("
            << (sa.makespan_minutes - best_wc) / sa.makespan_minutes * 100.0
            << "% improvement)\n";
  return 0;
}
