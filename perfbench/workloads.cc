#include "workloads.h"

#include <stdexcept>

namespace perfbench {

namespace {

using wcs::sched::Algorithm;
using wcs::sched::SchedulerSpec;

// Table 1 platform: 10 sites x 1 worker, 6000-file caches, block store
// at overlap 0 (the GridConfig default), no replication. The topology
// and worker-speed seeds keep their defaults: the benchmark seed varies
// the workload, not the platform.
wcs::grid::GridConfig paper_platform() {
  wcs::grid::GridConfig c;
  c.tiers.num_sites = 10;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 6000;
  return c;
}

SchedulerSpec pull(Algorithm algorithm, int choose_n) {
  SchedulerSpec s;
  s.algorithm = algorithm;
  s.choose_n = choose_n;
  return s;
}

wcs::workload::CoaddParams coadd(std::size_t tasks, std::uint64_t seed) {
  wcs::workload::CoaddParams p = wcs::workload::CoaddParams::paper_6000();
  p.num_tasks = tasks;
  p.seed = seed;
  return p;
}

// The paper's closed batch: Coadd 6000 under all six evaluated schedulers.
WorkloadCase paper_closed(std::uint64_t seed) {
  WorkloadCase w;
  w.name = "paper_closed";
  w.generator.coadd = coadd(6000, seed);
  for (const SchedulerSpec& s : SchedulerSpec::paper_algorithms())
    w.sims.push_back({paper_platform(), s});
  w.pass_cost_s = 4.2;
  return w;
}

// Many concurrent transfers sharing site uplinks: 40 sites x 8 workers.
WorkloadCase wide_flows(std::uint64_t seed) {
  WorkloadCase w;
  w.name = "wide_flows";
  w.generator.coadd = coadd(4000, seed);
  wcs::grid::GridConfig c = paper_platform();
  c.tiers.num_sites = 40;
  c.tiers.workers_per_site = 8;
  c.capacity_files = 2000;
  w.sims.push_back({c, pull(Algorithm::kRest, 1)});
  w.pass_cost_s = 3.5;
  return w;
}

// Mean per-task service time on one Table 1 worker, the calibration of
// the open-system scenarios (scenario/catalog_open.cc).
constexpr double kMeanServiceS = 7800.0;
constexpr double kOfferedLoad = 0.9;

// Three Coadd tenants (weights 3:1:2) arriving as Poisson streams under
// the WRR layer, on overlapping content with replication.
WorkloadCase open_dedup(std::uint64_t seed) {
  WorkloadCase w;
  w.name = "open_dedup";
  w.generator.generator = "multi-tenant";
  w.generator.coadd = coadd(3000, seed);
  wcs::workload::OpenParams& open = w.generator.open;
  open.process = wcs::workload::ArrivalProcess::kPoisson;
  open.seed = seed;
  for (std::uint32_t weight : {3u, 1u, 2u}) {
    wcs::workload::TenantInfo t;
    t.weight = weight;
    open.tenants.push_back(t);
  }
  wcs::grid::GridConfig c = paper_platform();
  // Each tenant offers a third of the total load rho.
  const double workers = static_cast<double>(c.tiers.num_sites) *
                         static_cast<double>(c.tiers.workers_per_site);
  open.mean_interarrival_s = kMeanServiceS / (workers * kOfferedLoad) *
                             static_cast<double>(open.tenants.size());
  c.capacity_files = 3000;
  c.block_store.emplace();
  c.block_store->content_overlap = 0.5;
  wcs::replication::DataReplicatorParams rp;
  rp.popularity_threshold = 8;
  rp.placement = wcs::replication::Placement::kNetworkCost;
  c.replication = rp;
  w.sims.push_back({c, pull(Algorithm::kRest, 2)});
  w.sims.push_back({c, pull(Algorithm::kCombined, 1)});
  w.pass_cost_s = 2.1;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_closed", "wide_flows",
                                                 "open_dedup"};
  return names;
}

WorkloadCase make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_closed") return paper_closed(seed);
  if (name == "wide_flows") return wide_flows(seed);
  if (name == "open_dedup") return open_dedup(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
